"""The three benchmark workloads.

Each workload turns a seed into a pool of ops.  An op is one call chain
into the public API of ``rainbow3`` (timed), a structural check of what it
returned, the canonical text of the output (digested at the reference
seed) and the report counts the traced run aggregates.  Ops call the
program through the package attributes (``rb.f``) at call time, so the
traced run's wrappers see them.

Why these instances (see README.md for the measurements behind them):

- construct-large: the +6 scheme at the scale it is run at.  All graphs
  have n=2000 so every op is the same kind of work and a run's ops are
  interchangeable: the run may stop between two passes over the pool.
- verify-desk: desk-size constructions the exhaustive verifier accepts
  (at most 14 colors), built during set-up, plus negative controls that
  must come back False and exact-solver ops with known answers.  Windmills
  t=10..20 in steps of one put the median of a pass on windmill t=13, clear
  of the seeded random graphs, whose cost varies with the seed.
- bounds-mid: ``bounds_report`` on mid-size graphs.  Eight n=80 random
  graphs form the tail of each pass.  The median lands in a group of four
  ops of near-equal cost (windmill t=20 and three n=60 random graphs), with
  nine cheaper ops below it and nine dearer ones above.  Both workloads
  with mixed op costs run whole passes, so the median and the tail always
  land on the same instances.
"""
from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import rainbow3 as rb

MAX_DESK_COLORS = 14   # the default color limit of rb.is_3_rainbow
LARGE_N = 2000
LARGE_POOL = 12


@dataclass
class Op:
    name: str                       # unique in the pool; key of its reference digest
    run: Callable[[], Any]          # the timed call chain into rainbow3
    check: Callable[[Any], bool]    # structural gate on the output
    text: Callable[[Any], str]      # canonical output, digested at the reference seed
    counts: Callable[[Any], dict]   # report counts the traced run sums


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool], list]   # (seed, tiny) -> list[Op]
    whole_passes: bool                    # stop only between passes over the pool


def instance_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# Shared checks and canonical text.

def _is_total(g, coloring) -> bool:
    return set(coloring.assignment) == set(g.edges)


def _plus6_ok(g, dom, coloring, certs, report) -> bool:
    """D is connected three-way dominating, the coloring is total, uses at
    most d+6 colors, and there is one certificate per outside vertex."""
    outside = [v for v in range(g.n) if v not in dom.vertices]
    return (
        rb.check_domination(g, dom.vertices, rb.k_way(3))
        and _is_total(g, coloring)
        and coloring.num_colors == report.num_colors <= report.d + 6
        and [c.vertex for c in certs] == outside
    )


def _plus3_ok(g, dom, coloring, report) -> bool:
    return (
        rb.check_domination(g, dom.vertices, rb.k_dominating(3))
        and _is_total(g, coloring)
        and coloring.num_colors == report.num_colors <= report.d + 3
    )


def _construction_text(dom, coloring, certs, report) -> str:
    lines = ["dom=" + ",".join(map(str, dom.sorted())), rb.write_coloring(coloring, report)]
    lines.extend(json.dumps([c.vertex, [list(p) for p in c.paths]]) for c in certs)
    return "\n".join(lines)


def _report_counts(n: int, dom_size: int, report) -> dict:
    return {
        "n": n,
        "dom": dom_size,
        "stage2_steps": report.stage2_steps,
        "recolored": report.recolored,
        "components": report.components,
        "inner_exact": int(report.inner_method == "exact"),
        "inner_spanning": int(report.inner_method == "spanning"),
    }


# ---------------------------------------------------------------------------
# construct-large

def _construct_op(name: str, g) -> Op:
    def run():
        dom = rb.three_way_dominating_set(g)
        coloring, certs, report = rb.three_way_coloring(g, dom)
        verified = [rb.verify_certificate(g, coloring, dom.vertices, c) for c in certs]
        return dom, coloring, certs, report, verified

    def check(out) -> bool:
        dom, coloring, certs, report, verified = out
        return _plus6_ok(g, dom, coloring, certs, report) and all(verified)

    return Op(
        name=name,
        run=run,
        check=check,
        text=lambda out: _construction_text(*out[:4]),
        counts=lambda out: _report_counts(g.n, out[0].size, out[3]),
    )


def construct_large(seed: int, tiny: bool) -> list:
    rng = instance_rng("construct-large", seed)
    n, pool = (150, 3) if tiny else (LARGE_N, LARGE_POOL)
    return [
        _construct_op(f"random-n{n}-{i}", rb.random_min_degree(n, 3, rng.randrange(2**31)))
        for i in range(pool)
    ]


# ---------------------------------------------------------------------------
# verify-desk

@dataclass
class DeskInstance:
    """A construction built during set-up, checked once there."""

    name: str
    g: Any
    dom: Any
    coloring: Any
    certs: list
    report: Any
    ok: bool


def _desk_instance(name: str, g, extra: int) -> DeskInstance:
    if extra == 6:
        dom = rb.three_way_dominating_set(g)
        coloring, certs, report = rb.three_way_coloring(g, dom)
        ok = _plus6_ok(g, dom, coloring, certs, report) and all(
            rb.verify_certificate(g, coloring, dom.vertices, c) for c in certs
        )
    else:
        dom = rb.min_connected_k_dominating_set(g, 3)
        coloring, report = rb.three_dom_coloring(g, dom)
        certs = []
        ok = _plus3_ok(g, dom, coloring, report)
    ok = ok and coloring.num_colors <= MAX_DESK_COLORS
    return DeskInstance(name, g, dom, coloring, certs, report, ok)


def _verify_op(name: str, inst: DeskInstance, coloring=None, certs=None,
               verdict: bool = True, verified: list | None = None) -> Op:
    """``rainbow3 verify --certs`` on one coloring: the exhaustive triple
    scan plus every certificate.  ``verdict`` and ``verified`` are the
    answers known by construction."""
    coloring = inst.coloring if coloring is None else coloring
    certs = inst.certs if certs is None else certs
    verified = [True] * len(certs) if verified is None else verified
    g, dset = inst.g, inst.dom.vertices
    control = coloring is not inst.coloring or certs is not inst.certs
    base = _construction_text(inst.dom, inst.coloring, inst.certs, inst.report)

    def run():
        rep = rb.is_3_rainbow(g, coloring)
        return rep, [rb.verify_certificate(g, coloring, dset, c) for c in certs]

    def check(out) -> bool:
        rep, got = out
        full_scan = rep.triples_checked == math.comb(g.n, 3)
        return inst.ok and rep.verdict == verdict and got == verified and (full_scan or not verdict)

    def counts(out) -> dict:
        found = {"triples": out[0].triples_checked}
        if not control:
            found.update(_report_counts(g.n, inst.dom.size, inst.report))
        return found

    return Op(
        name=name,
        run=run,
        check=check,
        text=lambda out: base + "\n" + json.dumps([out[0].to_json_dict(), out[1]],
                                                  sort_keys=True),
        counts=counts,
    )


def _bad_certificate(inst: DeskInstance) -> tuple[int, Any]:
    """Copy of one certificate whose second path is rewritten to leave its
    vertex through a non-edge; everything else about the path stays valid."""
    dset = inst.dom.vertices
    for idx, cert in enumerate(inst.certs):
        v, path = cert.vertex, cert.paths[1]
        if len(path) < 3:
            continue
        used = {x for p in cert.paths for x in p}
        for y in range(inst.g.n):
            if y not in dset and y not in used and not inst.g.has_edge(v, y):
                paths = (cert.paths[0], (v, y) + tuple(path[2:]), cert.paths[2])
                return idx, dataclasses.replace(cert, paths=paths)
    raise ValueError(f"{inst.name}: no certificate can be rerouted through a non-edge")


def _exact_op(name: str, g, known: int) -> Op:
    return Op(
        name=name,
        run=lambda: rb.exact_rx3(g, max_edges=g.m),
        check=lambda out: out == known,
        text=str,
        counts=lambda out: {},
    )


def verify_desk(seed: int, tiny: bool) -> list:
    rng = instance_rng("verify-desk", seed)
    ops: list[Op] = []
    insts: dict[str, DeskInstance] = {}

    def add(name: str, g, extra: int = 6) -> None:
        inst = insts[name] = _desk_instance(name, g, extra)
        ops.append(_verify_op(name, inst))

    windmills = (10, 20) if tiny else tuple(range(10, 21)) + (22, 24, 26, 28, 30, 35, 40)
    for t in windmills:
        add(f"windmill-{t}", rb.french_windmill(t).graph)
    for t, extra in ((5, 6), (10, 3)) if tiny else ((5, 6), (10, 3), (20, 3), (40, 6)):
        add(f"threshold-{t}-plus{extra}", rb.threshold_example(t).graph, extra)
    chains = ((4, 4, 6),) if tiny else ((4, 4, 6), (6, 8, 3), (10, 10, 6), (20, 20, 6))
    for k, t, extra in chains:
        add(f"chain-{k}-{t}-plus{extra}", rb.chain_example(k, t).graph, extra)
    for n in (12, 16) if tiny else (12, 14, 16, 18, 20):
        # the seed picks the graph; graphs whose construction needs more
        # colors than the exhaustive verifier accepts are redrawn
        for _ in range(50):
            g = rb.random_min_degree(n, 3, rng.randrange(2**31))
            inst = _desk_instance(f"random-n{n}", g, 6)
            if inst.coloring.num_colors <= MAX_DESK_COLORS:
                break
        insts[inst.name] = inst
        ops.append(_verify_op(inst.name, inst))

    # Negative controls.  A monochrome coloring fails on the first triple
    # (any tree on three vertices has two edges); a certificate rerouted
    # through a non-edge fails after a full triple scan.
    for name in ("windmill-20", "random-n16"):
        inst = insts[name]
        mono = rb.EdgeColoring.from_dict({e: 1 for e in inst.g.edges})
        ops.append(_verify_op(f"{name}-mono", inst, coloring=mono, certs=[], verdict=False))
    big = insts[f"windmill-{windmills[-1]}"]
    idx, bad = _bad_certificate(big)
    certs = list(big.certs)
    certs[idx] = bad
    verified = [i != idx for i in range(len(certs))]
    ops.append(_verify_op(f"{big.name}-bad-cert", big, certs=certs, verified=verified))

    # Ground truth of the exact solver: rx3(P_n) = n-1, windmill(2) has a
    # 3-rainbow 3-coloring, windmill(3) needs 4 colors.
    n = 6 if tiny else 9
    exact = [(f"exact-path-{n}", rb.path_graph(n), n - 1)]
    exact.append(("exact-windmill-2", rb.french_windmill(2).graph, 3))
    if not tiny:
        exact.append(("exact-windmill-3", rb.french_windmill(3).graph, 4))
    ops.extend(_exact_op(name, g, known) for name, g, known in exact)
    return ops


# ---------------------------------------------------------------------------
# bounds-mid

def _bounds_op(name: str, g) -> Op:
    def check(report) -> bool:
        return report.n == g.n and report.m == g.m and report.sdiam3 <= report.best

    def counts(report) -> dict:
        routes = (report.bound_a, report.bound_b, report.bound_c)
        methods = [route["d_method"] for route in routes]
        return {
            "n": g.n,
            "dom": report.bound_c["dom_size"],
            "inner_exact": methods.count("exact"),
            "inner_spanning": methods.count("spanning"),
        }

    return Op(
        name=name,
        run=lambda: rb.bounds_report(g),
        check=check,
        text=lambda report: json.dumps(report.to_json_dict(), sort_keys=True),
        counts=counts,
    )


def bounds_mid(seed: int, tiny: bool) -> list:
    rng = instance_rng("bounds-mid", seed)
    if tiny:
        fixed = [("windmill-5", rb.french_windmill(5).graph), ("gstar-0", rb.gstar(3, 0).graph)]
        randoms = [("random-n12", 12)]
    else:
        # windmill t=7, gstar m=1 and the n=16/18 random graphs are within
        # the exact enumeration limits and exercise the exact domination path
        fixed = [(f"windmill-{t}", rb.french_windmill(t).graph) for t in (7, 10, 20)]
        fixed += [(f"gstar-{m}", rb.gstar(3, m).graph) for m in (1, 4, 8, 16)]
        randoms = [("random-n16", 16), ("random-n18", 18)]
        randoms += [(f"random-n40-{i}", 40) for i in range(2)]
        randoms += [(f"random-n60-{i}", 60) for i in range(3)]
        randoms += [(f"random-n80-{i}", 80) for i in range(8)]
    ops = [_bounds_op(name, g) for name, g in fixed]
    for name, n in randoms:
        ops.append(_bounds_op(name, rb.random_min_degree(n, 3, rng.randrange(2**31))))
    return ops


WORKLOADS = {
    "construct-large": Workload("construct-large", construct_large, whole_passes=False),
    "verify-desk": Workload("verify-desk", verify_desk, whole_passes=True),
    "bounds-mid": Workload("bounds-mid", bounds_mid, whole_passes=True),
}
