"""Dominating-set variants: predicate checks, exact minimum searches at desk
scale, and a many-leaf spanning-tree heuristic."""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, GraphError, LimitError, is_connected, vertex_set


class DominationError(ValueError):
    """The supplied set does not satisfy the required domination property."""


EXACT = "exact"
HEURISTIC = "heuristic"

# Read at call time.  Largest n for an exact set of any kind; a hard cap on its memory
CDS_EXACT_LIMIT = 24
# Largest n at which dominating_set enumerates a k-dominating kind exactly
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
    provenance: str

    @property
    def size(self) -> int:
        return len(self.vertices)

    def sorted(self) -> list[int]:
        return sorted(self.vertices)


def check_domination(g: Graph, dom: Iterable[int], kind: DominationKind) -> bool:
    """True iff ``dom`` is a set of vertices of g with the named domination
    property.  A kind with ``k_dominating == 1`` on a graph whose every
    degree meets ``k_way`` takes the covered-set test N[D] = V (DECISIONS.md
    entry 14); any other kind counts each outside vertex's neighbors in D."""
    try:
        dset = vertex_set(g, dom)
    except GraphError:
        return False
    need, low, adj = kind.k_dominating, kind.k_way, g.adj
    if need == 1 and (not low or g.min_degree() >= low):
        return len(dset.union(*[adj[v] for v in dset])) == g.n and is_connected(g, dset)
    for v in range(g.n):
        if v in dset:
            continue
        nbrs = adj[v]
        if len(nbrs) < low or (
            dset.isdisjoint(nbrs) if need == 1 else len(dset.intersection(nbrs)) < need
        ):
            return False
    return is_connected(g, dset)


def min_dominating_set(g: Graph, kind: DominationKind) -> DominatingSet:
    """Smallest ``kind`` set, the lexicographically first on a tie.

    Grows connected sets level by level by one open neighbor each (dropping
    a spanning-tree leaf shows every connected set is reached), deduplicated
    as bitmasks.  When ``k_dominating == 1`` and level k holds no set, the
    least set of level k + 1 is read off level k: a k-set d takes a neighbor
    x exactly when x is adjacent to every vertex d leaves undominated and is
    the one forced vertex d leaves out, if any.  The level where the minimum
    is found is never built (DECISIONS.md entry 14).  A level lives in
    memory, so CDS_EXACT_LIMIT is a hard cap."""
    if not is_connected(g):
        raise GraphError("graph must be connected")
    if g.n > CDS_EXACT_LIMIT:
        raise LimitError(f"exact enumeration limited to n <= {CDS_EXACT_LIMIT}, got n={g.n}; "
                         "use the heuristic variant")
    nbr = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    full, need = (1 << g.n) - 1, kind.k_dominating
    # an outside vertex of degree below k_way or below need always fails
    forced = sum(1 << v for v in range(g.n) if g.degree(v) < max(kind.k_way, need))
    level = {1 << v: nbr[v] for v in range(g.n)}  # set -> union of its neighborhoods
    scan = True  # the first level, and every level of a k-dominating kind
    while level:
        best = 0
        for d, reach in level.items() if scan else ():
            if forced & ~d or reach | d != full:
                continue
            x = full ^ d if need > 1 else 0  # outside vertices left to count
            while x and (nbr[(x & -x).bit_length() - 1] & d).bit_count() >= need:
                x &= x - 1
            diff = d ^ best  # d sorts first iff the least vertex of just one is in d
            if not x and (not best or d & diff & -diff):
                best = d
        if not best and need == 1:  # level k + 1 read off level k
            scan = False
            for d, reach in level.items():
                x, miss, f = reach & ~d, full & ~(reach | d), forced & ~d
                if f:  # a forced vertex left out must be x itself
                    x &= 0 if f & (f - 1) else f
                while x and miss:
                    u = miss & -miss
                    x &= nbr[u.bit_length() - 1]  # u is not in reach, so x != u
                    miss ^= u
                if x:
                    d |= x & -x  # the least x gives d's first completion
                    diff = d ^ best
                    if not best or d & diff & -diff:
                        best = d
        if best:
            return DominatingSet(frozenset(v for v in range(g.n) if best >> v & 1), EXACT)
        grown: dict = {}
        for d, reach in level.items():
            x = reach & ~d
            while x:
                low = x & -x
                if d | low not in grown:
                    grown[d | low] = reach | nbr[low.bit_length() - 1]
                x ^= low
        level = grown
    raise DominationError(f"no {kind.label()} set exists")


def min_connected_dominating_set(g: Graph) -> DominatingSet:
    """Smallest connected dominating set (exact enumeration)."""
    return min_dominating_set(g, CONNECTED)


def min_connected_k_dominating_set(g: Graph, k: int) -> DominatingSet:
    """Smallest connected k-dominating set (exact enumeration)."""
    return min_dominating_set(g, k_dominating(k))


def cds_heuristic(g: Graph) -> DominatingSet:
    """Non-leaf vertices of a greedily grown many-leaf spanning tree.

    The greedy many-leaf growth of Guha & Khuller, *Approximation
    algorithms for connected dominating sets* (Algorithmica 1998): start at
    a vertex of maximum degree (smallest id on a tie) and repeatedly make
    internal the tree vertex with the most neighbors not yet in the tree,
    the smallest id on a tie, adding all those neighbors.  Each vertex
    keeps its count of outside neighbors and a tree vertex one heap entry,
    the int ``(top - count) * n + v`` with ``top`` the maximum degree, which
    orders as ``(-count, v)`` does.  An entry popped with a key other than
    its vertex's current one is stale and goes back with the new count
    (DECISIONS.md entry 6).

    Always a valid connected dominating set (post-checked); no size
    guarantee is asserted.  The growth itself proves g connected: the heap
    empties before the tree spans g exactly when g is not.
    """
    if g.n == 0:
        raise DominationError("no connected dominating set exists")
    if g.n == 1:
        return DominatingSet(frozenset({0}), HEURISTIC)
    adj, n = g.adj, g.n
    outside = [len(nbrs) for nbrs in adj]
    top = max(outside)
    root = outside.index(top)
    in_tree = bytearray(n)
    in_tree[root] = 1
    for x in adj[root]:
        outside[x] -= 1
    heap = [root]  # key (top - count) * n + v; the root's count is top
    heappush, heappop = heapq.heappush, heapq.heappop
    internal: set[int] = set()
    size = 1
    while size < n:
        if not heap:
            raise GraphError("graph must be connected")
        key = heappop(heap)
        v = key % n
        fresh = (top - outside[v]) * n + v
        if key != fresh:  # stale: push back with the current count
            heappush(heap, fresh)
            continue
        internal.add(v)
        for w in adj[v]:
            if not in_tree[w]:  # w joins the tree
                in_tree[w] = 1
                for x in adj[w]:
                    outside[x] -= 1
                heappush(heap, (top - outside[w]) * n + w)
                size += 1
    result = DominatingSet(frozenset(internal), HEURISTIC)
    if not check_domination(g, result.vertices, CONNECTED):
        raise AssertionError("heuristic produced an invalid connected dominating set")
    return result


def dominating_set(
    g: Graph, kind: DominationKind, core: DominatingSet | None = None
) -> DominatingSet:
    """The one ``kind`` set policy.  A k-dominating kind is the exact minimum
    when n <= ROUTE_EXACT_LIMIT.  Otherwise ``core`` is returned as it is
    when it is already a ``kind`` set, and grown into one when it is not.

    The default core is the exact minimum connected dominating set when
    n <= CDS_EXACT_LIMIT, otherwise ``cds_heuristic``; it qualifies
    unchecked when ``k_dominating == 1`` and the minimum degree meets
    ``k_way`` (DECISIONS.md entry 14).  Every connected ``kind`` set
    dominates, so an exact core that qualifies is a minimum ``kind`` set.
    Any other core, given or default, qualifies when one
    ``check_domination`` passes.

    Otherwise growth adds every vertex of degree below ``kind.k_way``, then
    for each outside vertex short of ``kind.k_dominating`` neighbors inside,
    the vertex itself when its degree is too small and otherwise its outside
    neighbors in ascending order until it has enough.  One pass suffices:
    adding vertices never lowers a count, so every vertex already passed
    stays satisfied.  Every added vertex is adjacent to a dominating core, so
    the set stays connected; a core that does not dominate may fail the
    post-check.  A grown set is heuristic."""
    if kind.k_dominating > 1 and g.n <= ROUTE_EXACT_LIMIT:
        return min_dominating_set(g, kind)
    if core is None:
        core = min_connected_dominating_set(g) if g.n <= CDS_EXACT_LIMIT else cds_heuristic(g)
        if kind.k_dominating == 1 and g.min_degree() >= kind.k_way:
            return core
    if check_domination(g, core.vertices, kind):
        return core
    dset = set(core.vertices)
    adj, need, low = g.adj, kind.k_dominating, kind.k_way
    dset.update(v for v, nbrs in enumerate(adj) if len(nbrs) < low)
    for v in range(g.n):
        if v in dset:
            continue
        nbrs = adj[v]
        inside = len(dset.intersection(nbrs))
        if inside >= need:
            continue
        if len(nbrs) < need:
            dset.add(v)
            continue
        for w in nbrs:
            if w not in dset:
                dset.add(w)
                inside += 1
                if inside >= need:
                    break
    result = DominatingSet(frozenset(dset), HEURISTIC)
    if not check_domination(g, result.vertices, kind):
        raise AssertionError(f"growth failed to reach a {kind.label()} set")
    return result


def three_way_dominating_set(g: Graph) -> DominatingSet:
    """``dominating_set(g, k_way(3))``: the connected core plus every vertex
    of degree < 3."""
    return dominating_set(g, k_way(3))
