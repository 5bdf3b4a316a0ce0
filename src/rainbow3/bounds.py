"""Upper/lower bound report for one graph: the three dominating-set routes,
the minimum-degree family bounds, and the Steiner-diameter lower bound,
with honest exact-vs-heuristic provenance flags."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .coloring import inner_coloring
from .domination import (
    CONNECTED,
    DominatingSet,
    DominationKind,
    dominating_set,
    k_dominating,
    k_way,
)
from .graphs import Graph, GraphError, is_connected, sdiam3


@dataclass(frozen=True)
class BoundsReport:
    n: int
    m: int
    delta: int
    n1: int
    n2: int
    gamma_c: dict
    sdiam3: int
    bound_a: dict
    bound_b: dict
    bound_c: dict
    corollary_bounds: dict
    best: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _route(g: Graph, dom: DominatingSet, extra: int) -> dict:
    inner, method = inner_coloring(g, dom.vertices, offset=0)
    d = inner.num_colors
    return {
        "value": d + extra,
        "d": d,
        "d_method": method,
        "dom_size": dom.size,
        "provenance": dom.provenance,
    }


def bounds_report(g: Graph) -> BoundsReport:
    """Compute every applicable upper bound and take the smallest.

    One connected dominating core (``dominating_set(g, CONNECTED)``) gives
    gamma_c, and ``dominating_set`` builds each route's set from it.  The d+4
    route is reported by value only; its coloring construction is cited prior
    work and never built here."""
    if not is_connected(g):
        raise GraphError("graph must be connected")
    delta = g.min_degree()
    n1 = sum(1 for v in range(g.n) if g.degree(v) == 1)
    n2 = sum(1 for v in range(g.n) if g.degree(v) == 2)
    lower = sdiam3(g)
    core = dominating_set(g, CONNECTED)
    gamma_c = {"value": core.size, "provenance": core.provenance}

    dom_a = dominating_set(g, k_dominating(3), core)
    dom_b = dominating_set(g, DominationKind(k_dominating=2, k_way=3), core)
    dom_c = dominating_set(g, k_way(3), core)
    bound_a = _route(g, dom_a, 3)
    bound_b = _route(g, dom_b, 4)
    bound_b["constructed"] = False
    bound_b["note"] = "cited, not constructed"
    bound_c = _route(g, dom_c, 6)

    family = None
    if delta >= 5:
        family = 0.5 * g.n + 3
    elif delta == 4:
        family = 0.6 * g.n + 3.4
    elif delta == 3:
        family = 0.75 * g.n + 3
    gamma_n1_n2 = gamma_c["value"] + n1 + n2 + 5
    asymptotic = g.n * math.log(delta + 1) / (delta + 1) + 5 if delta >= 1 else None
    corollary = {
        "min_degree_family": family,
        "gamma_c_n1_n2": gamma_n1_n2,
        "asymptotic": asymptotic,
    }
    candidates = [bound_a["value"], bound_b["value"], bound_c["value"], gamma_n1_n2]
    if family is not None:
        candidates.append(math.floor(family))
    best = min(candidates)
    return BoundsReport(
        n=g.n,
        m=g.m,
        delta=delta,
        n1=n1,
        n2=n2,
        gamma_c=gamma_c,
        sdiam3=lower,
        bound_a=bound_a,
        bound_b=bound_b,
        bound_c=bound_c,
        corollary_bounds=corollary,
        best=best,
    )
