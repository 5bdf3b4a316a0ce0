"""Dominating-set variants: predicate checks, exact minimum searches at desk
scale, and a many-leaf spanning-tree heuristic."""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, GraphError, is_connected


class DominationError(ValueError):
    """The supplied set does not satisfy the required domination property."""


class LimitError(RuntimeError):
    """An exact search was asked to exceed its configured size limit."""


EXACT = "exact"
HEURISTIC = "heuristic"
USER = "user"

# Default largest n for exact enumeration of the connected core or any kind of set
CDS_EXACT_LIMIT = 24
# Largest n at which bounds_report and `color --dom auto` enumerate route sets exactly
ROUTE_EXACT_LIMIT = 14


@dataclass(frozen=True)
class DominationKind:
    """Which strengthening of connected domination is required.

    G[D] is always connected.  k_dominating: every outside vertex needs that
    many neighbors inside D (1 is plain domination).  k_way: every outside
    vertex needs that total degree in G.
    """

    k_dominating: int = 1
    k_way: int = 0

    def label(self) -> str:
        if self.k_dominating > 1:
            return f"connected {self.k_dominating}-dominating"
        if self.k_way > 0:
            return f"connected {self.k_way}-way"
        return "connected dominating"


CONNECTED = DominationKind()


def k_way(k: int) -> DominationKind:
    return DominationKind(k_way=k)


def k_dominating(k: int) -> DominationKind:
    return DominationKind(k_dominating=k)


@dataclass(frozen=True)
class DominatingSet:
    vertices: frozenset
    kind: DominationKind
    provenance: str

    @property
    def size(self) -> int:
        return len(self.vertices)

    def sorted(self) -> list[int]:
        return sorted(self.vertices)


def check_domination(g: Graph, dom: Iterable[int], kind: DominationKind) -> bool:
    """True iff ``dom`` satisfies the named domination property in g."""
    dset = frozenset(dom)
    if any(v < 0 or v >= g.n for v in dset):
        return False
    need = kind.k_dominating
    for v in range(g.n):
        if v in dset:
            continue
        if kind.k_way and g.degree(v) < kind.k_way:
            return False
        count = 0
        for w in g.adj[v]:
            if w in dset:
                count += 1
                if count >= need:
                    break
        if count < need:
            return False
    return is_connected(g, dset)


def min_dominating_set(
    g: Graph, kind: DominationKind, limit: int = CDS_EXACT_LIMIT
) -> DominatingSet:
    """Smallest set satisfying ``kind`` by increasing-size enumeration; ties
    broken lexicographically.  Exact only up to the size limit."""
    if not is_connected(g):
        raise GraphError("graph must be connected")
    if g.n > limit:
        raise LimitError(
            f"exact enumeration limited to n <= {limit}, got n={g.n}; "
            "use the heuristic variant"
        )
    nbr_mask = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            dmask = 0
            for v in combo:
                dmask |= 1 << v
            # fast domination reject before the connectivity scan
            ok = True
            need = kind.k_dominating
            for v in range(g.n):
                bit = 1 << v
                if dmask & bit:
                    continue
                inter = nbr_mask[v] & dmask
                if need == 1:
                    if not inter:
                        ok = False
                        break
                elif bin(inter).count("1") < need:
                    ok = False
                    break
                if kind.k_way and g.degree(v) < kind.k_way:
                    ok = False
                    break
            if not ok:
                continue
            if not _mask_connected(nbr_mask, dmask, combo[0]):
                continue
            return DominatingSet(frozenset(combo), kind, EXACT)
    raise DominationError(f"no {kind.label()} set exists")


def _mask_connected(nbr_mask: list, dmask: int, start: int) -> bool:
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            v = low.bit_length() - 1
            f ^= low
            nxt |= nbr_mask[v] & dmask & ~seen
        seen |= nxt
        frontier = nxt
    return seen == dmask


def min_connected_dominating_set(g: Graph, limit: int = CDS_EXACT_LIMIT) -> DominatingSet:
    """Smallest connected dominating set (exact enumeration)."""
    return min_dominating_set(g, CONNECTED, limit)


def min_connected_k_dominating_set(
    g: Graph, k: int, limit: int = CDS_EXACT_LIMIT
) -> DominatingSet:
    """Smallest connected k-dominating set (exact enumeration)."""
    return min_dominating_set(g, k_dominating(k), limit)


def cds_heuristic(g: Graph) -> DominatingSet:
    """Non-leaf vertices of a greedily grown many-leaf spanning tree.

    The greedy many-leaf growth of Guha & Khuller, *Approximation
    algorithms for connected dominating sets* (Algorithmica 1998): start at
    a vertex of maximum degree (smallest id on a tie) and repeatedly make
    internal the tree vertex with the most neighbors not yet in the tree,
    the smallest id on a tie, adding all those neighbors.  Each vertex
    keeps its count of outside neighbors; picks come from a heap keyed
    ``(-count, v)`` whose stale entries are skipped on pop.

    Always a valid connected dominating set (post-checked); no size
    guarantee is asserted.
    """
    if not is_connected(g):
        raise GraphError("graph must be connected")
    if g.n == 1:
        return DominatingSet(frozenset({0}), CONNECTED, HEURISTIC)
    root = max(range(g.n), key=lambda v: (g.degree(v), -v))
    outside = [len(nbrs) for nbrs in g.adj]
    in_tree = [False] * g.n
    heap: list[tuple[int, int]] = []

    def join(w: int) -> None:
        in_tree[w] = True
        for x in g.adj[w]:
            outside[x] -= 1
            if in_tree[x]:
                heapq.heappush(heap, (-outside[x], x))
        heapq.heappush(heap, (-outside[w], w))

    join(root)
    size = 1
    internal: set[int] = set()
    while size < g.n:
        neg_new, best_v = heapq.heappop(heap)
        if -neg_new != outside[best_v]:
            continue
        if neg_new == 0:
            raise GraphError("graph must be connected")
        internal.add(best_v)
        for w in g.adj[best_v]:
            if not in_tree[w]:
                join(w)
                size += 1
    if not internal:
        internal = {root}
    result = DominatingSet(frozenset(internal), CONNECTED, HEURISTIC)
    if not check_domination(g, result.vertices, CONNECTED):
        raise AssertionError("heuristic produced an invalid connected dominating set")
    return result


def connected_dominating_set(g: Graph, exact_limit: int = CDS_EXACT_LIMIT) -> DominatingSet:
    """The connected dominating core every construction grows from: the
    exact minimum when n <= exact_limit, otherwise the many-leaf heuristic."""
    if g.n <= exact_limit:
        return min_connected_dominating_set(g, exact_limit)
    return cds_heuristic(g)


def grow_dominating_set(g: Graph, core: DominatingSet, kind: DominationKind) -> DominatingSet:
    """Checked growth of a connected dominating core into a ``kind`` set.

    Adds every vertex of degree below ``kind.k_way``, then for each outside
    vertex short of ``kind.k_dominating`` neighbors inside, the vertex itself
    when its degree is too small and otherwise its outside neighbors in
    ascending order until it has enough; repeated until nothing changes.
    Every added vertex is adjacent to the core, so the set stays connected.
    The core's provenance is kept only when nothing was added: every
    connected ``kind`` set dominates, so a minimum connected dominating set
    that already satisfies ``kind`` is a minimum ``kind`` set.  Otherwise it
    is heuristic."""
    dset = set(core.vertices)
    if kind.k_way:
        dset |= {v for v in range(g.n) if g.degree(v) < kind.k_way}
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if v in dset:
                continue
            inside = [w for w in g.adj[v] if w in dset]
            if len(inside) >= kind.k_dominating:
                continue
            if g.degree(v) < kind.k_dominating:
                dset.add(v)
            else:
                for w in g.adj[v]:
                    if w not in dset:
                        dset.add(w)
                        if len(inside) + 1 >= kind.k_dominating:
                            break
                        inside.append(w)
            changed = True
    provenance = core.provenance if dset == core.vertices else HEURISTIC
    result = DominatingSet(frozenset(dset), kind, provenance)
    if not check_domination(g, result.vertices, kind):
        raise AssertionError(f"growth failed to reach a {kind.label()} set")
    return result


def dominating_set(
    g: Graph, kind: DominationKind, exact_limit: int, core: DominatingSet | None = None
) -> DominatingSet:
    """Smallest ``kind`` set when n <= exact_limit, otherwise ``core`` (by
    default ``connected_dominating_set(g)``) grown into a ``kind`` set."""
    if g.n <= exact_limit:
        return min_dominating_set(g, kind, exact_limit)
    if core is None:
        core = connected_dominating_set(g)
    return grow_dominating_set(g, core, kind)


def three_way_dominating_set(g: Graph, exact_limit: int = CDS_EXACT_LIMIT) -> DominatingSet:
    """Connected dominating core unioned with every vertex of degree < 3.

    The core is ``connected_dominating_set(g, exact_limit)``; the result
    satisfies connected 3-way domination (post-checked) and carries the
    core's provenance when no vertex was added."""
    return grow_dominating_set(g, connected_dominating_set(g, exact_limit), k_way(3))
