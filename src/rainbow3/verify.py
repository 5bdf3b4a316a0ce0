"""Edge colorings, safety certificates and independent verification machinery.

The two value types every construction returns are defined here.  The rest
checks colorings without trusting how they were built: exhaustive
3-rainbow verification by a search over rainbow-walk color masks,
safety-certificate checking, the transcribed color-set class tables, and an
exact minimum-color solver used as ground truth on small instances.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import asdict, dataclass
from math import comb
from typing import Container, Iterator, Sequence

from .graphs import Graph, GraphError, LimitError, is_connected


# Default limits: the largest color count and edge count the exact solver
# searches.
EXACT_KMAX = 8
EXACT_MAX_EDGES = 14
# Work budgets, read at call time.  One call of the rainbow-tree verifier
# may spend VERIFY_WORK_BUDGET units: a candidate walk mask costs 1 plus the
# antichain it is compared against, a median-join pair costs 1, and a scan of
# the third antichain that finds no match costs its length.  The exact solver
# may expand EXACT_NODE_BUDGET search nodes per color count.
VERIFY_WORK_BUDGET = 200_000_000
EXACT_NODE_BUDGET = 20_000_000


@dataclass(frozen=True)
class EdgeColoring:
    """Total mapping from canonical edges to colors: any hashable value is a
    color (the constructions use positive integers, and so does the CLI)."""

    assignment: dict
    num_colors: int

    @classmethod
    def from_dict(cls, assignment: dict) -> "EdgeColoring":
        return cls(dict(assignment), len(set(assignment.values())) if assignment else 0)


@dataclass(frozen=True, slots=True)
class SafetyCertificate:
    """Three internally disjoint super-rainbow v-D paths for one outside
    vertex; the first path is always the single leg edge."""

    vertex: int
    paths: tuple
    color_sets: tuple


@dataclass(frozen=True)
class VerifyReport:
    verdict: bool
    witness: tuple | None
    triples_checked: int
    colors: int

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Color-set class tables.
#
# Seven labeled collections of color-set triples; each triple is (first-path
# colors, second, third) with the second and third unordered.  Class 0 holds
# the shapes where at least two paths are single edges.

def _t(*parts: str) -> tuple[frozenset, ...]:
    return tuple(frozenset(int(ch) for ch in p) for p in parts)


CLASS_TABLE: dict[int, tuple[tuple[frozenset, ...], ...]] = {
    0: (
        _t("1", "2", "3"),
        _t("1", "2", "34"),
        _t("1", "2", "36"),
        _t("2", "3", "14"),
        _t("2", "3", "15"),
        _t("1", "3", "24"),
        _t("1", "3", "25"),
    ),
    1: (
        _t("1", "24", "35"),
        _t("1", "36", "24"),
        _t("1", "36", "25"),
        _t("1", "24", "56"),
        _t("1", "36", "45"),
        _t("1", "36", "245"),
        _t("1", "24", "356"),
        _t("1", "346", "25"),
    ),
    2: (
        _t("2", "36", "14"),
        _t("2", "14", "35"),
        _t("2", "14", "56"),
        _t("2", "36", "15"),
        _t("2", "36", "45"),
        _t("2", "46", "35"),
        _t("2", "36", "145"),
        _t("2", "14", "356"),
        _t("2", "346", "15"),
    ),
    3: (
        _t("3", "15", "26"),
        _t("3", "25", "16"),
        _t("3", "15", "46"),
        _t("3", "25", "46"),
        _t("3", "15", "24"),
        _t("3", "25", "14"),
        _t("3", "25", "146"),
        _t("3", "15", "246"),
    ),
    4: (
        _t("4", "36", "15"),
        _t("4", "36", "25"),
        _t("4", "36", "125"),
    ),
    5: (
        _t("5", "14", "26"),
        _t("5", "24", "16"),
    ),
    6: (
        _t("6", "25", "34"),
        _t("6", "15", "34"),
        _t("6", "15", "24"),
        _t("6", "245", "13"),
    ),
}

_CLASS_LOOKUP: dict[frozenset, int] = {
    frozenset(entry): label for label, entries in CLASS_TABLE.items() for entry in entries
}


def class_membership(triple: Sequence[frozenset]) -> int | None:
    """Class containing the triple, matching the second/third sets unordered,
    or None.  The first set must be one of the entry's singletons."""
    if len(triple) != 3:
        return None
    sets = tuple(frozenset(s) for s in triple)
    return _CLASS_LOOKUP.get(frozenset(sets)) if len(sets[0]) == 1 else None


# ---------------------------------------------------------------------------
# Rainbow S-tree existence.
#
# Walk masks: a rainbow walk uses pairwise-distinct edge colors, so the
# union of three color-disjoint rainbow walks meeting at a median vertex is
# a connected rainbow subgraph, and its spanning tree is a rainbow S-tree.
# Conversely a rainbow S-tree restricts to three such walks at its median.

def _spend(work: list[int], units: int) -> None:
    """Take units from work[0], the units one verifier call has left."""
    work[0] -= units
    if work[0] < 0:
        raise LimitError(f"verifier work budget {VERIFY_WORK_BUDGET} exceeded")


def _color_bits(g: Graph, c: EdgeColoring) -> list[list[tuple[int, int]]]:
    """Each vertex's (neighbor, color bit) pairs, after checking that ``c``
    colors every edge of g."""
    absent = object()  # only a missing key is uncolored; a None color is a color
    cols = list(map(c.assignment.get, g.edges, itertools.repeat(absent)))
    if absent in cols:
        raise GraphError(f"coloring is not total: {g.edges[cols.index(absent)]} uncolored")
    bit = {col: 1 << i for i, col in enumerate(dict.fromkeys(cols))}  # first-seen order
    adj_bits: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for (u, v), col in zip(g.edges, cols):
        b = bit[col]
        adj_bits[u].append((v, b))
        adj_bits[v].append((u, b))
    return adj_bits


def _single_source_masks(
    n: int,
    adj_bits: list[list[tuple[int, int]]],
    source: int,
    work: list[int],
) -> list[list[int]]:
    """Minimal color masks of rainbow walks from source to every vertex.

    Processes states level by level; each step adds one color bit, so the
    popcount ascends and each antichain is add-only.
    """
    ant: list[list[int]] = [[] for _ in range(n)]
    ant[source].append(0)
    layer = [(source, 0)]
    while layer:
        grown: list[tuple[int, int]] = []
        for v, mask in layer:
            cost = 0
            for w, b in adj_bits[v]:
                if mask & b:
                    continue
                m2 = mask | b
                existing = ant[w]
                cost += 1 + len(existing)
                for a in existing:
                    if a & m2 == a:
                        break
                else:
                    existing.append(m2)
                    grown.append((w, m2))
            _spend(work, cost)
        layer = grown
    return ant


def _joins(aa: list[int], bb: list[int], cc: list[int], work: list[int]) -> bool:
    """True iff the three walk antichains at one median hold pairwise
    disjoint masks."""
    if not (aa and bb and cc):
        return False
    for ma in aa:
        cost = len(bb)
        for mb in bb:
            if ma & mb:
                continue
            mab = ma | mb
            for mc in cc:
                if not (mab & mc):
                    return True
            cost += len(cc)
        _spend(work, cost)
    return False


def _twins(ends: list[list[int]]) -> tuple:
    """Each vertex's twin class id at one median (vertices whose walk antichains
    are equal as sets are twins), each class's bitset, and an empty ``good`` map
    from class a to class b to the third vertices settled for that class pair."""
    ids: dict[frozenset, int] = {}
    cls = [ids.setdefault(frozenset(masks), len(ids)) for masks in ends]
    classes = [0] * len(ids)
    for v, k in enumerate(cls):
        classes[k] |= 1 << v
    return cls, classes, defaultdict(dict)


def is_3_rainbow(
    g: Graph,
    c: EdgeColoring,
) -> VerifyReport:
    """Check every vertex triple for a rainbow tree; first failure wins.

    A rainbow walk reversed is one with the same colors, so the walks from
    a median m to every vertex serve all triples, and the walks from a, b
    and c to m join there exactly when m's own walks do.  A triple tries the
    medians in move-to-front order and searches the first untried one it
    meets; once that fails, it searches its own terminals and searches a
    further untried median only if their walks join at it.  No source is
    searched twice, so a call runs at most n searches, and the move-to-front
    list keeps the per-triple join cheap on valid colorings.

    Whether a triple joins at m depends only on the three antichains, so a
    join that succeeds holds for every triple of the same twin classes at m;
    ``good[class a][class b]`` collects the third vertices so settled, and
    classes are built only at the medians that reach the front.  For each
    pair (a, b), the run of settled third vertices below the next unsettled
    one at the front median needs no join: that median would serve each of
    them first, leaving the median order as it was.  So each row a first drops,
    in one pass over ``good[class a]`` at the front, every b whose class entry
    settles all c > b; if the front moves, the rest of the row goes pair by pair.
    """
    adj_bits = _color_bits(g, c)
    n = g.n
    if n < 3:
        return VerifyReport(True, None, 0, c.num_colors)
    work = [VERIFY_WORK_BUDGET]
    ends: list[list[list[int]] | None] = [None] * n

    def walks(t: int) -> list[list[int]]:
        if ends[t] is None:
            ends[t] = _single_source_masks(n, adj_bits, t, work)
        return ends[t]

    twins: list[tuple | None] = [None] * n
    twins[0] = _twins(walks(0))  # the first triple's first median
    medians = list(range(n))
    every = (1 << n) - 1
    for a in range(n - 2):
        todo = every >> 1 >> (a + 1) << (a + 1)  # b = a + 1 .. n - 2
        start = medians[0]
        cls, classes, good = twins[start]
        for kb, known in good[cls[a]].items():
            low = max((every ^ known).bit_length() - 1, 0)  # b >= low has every c settled
            todo &= ~(classes[kb] >> low << low)
        while todo:
            b = (todo & -todo).bit_length() - 1
            todo ^= 1 << b
            # known: the third vertices settled for (a, b) at the front median
            cc, front = b, -1
            while True:
                if medians[0] != front:
                    front = medians[0]
                    cls, classes, good = twins[front]
                    pairs, kb = good[cls[a]], cls[b]
                    known = pairs.get(kb, 0)
                # jump to the next unsettled third vertex; the first failure
                # gives its rank among all triples
                rest = (every ^ known) >> (cc + 1)
                if not rest:
                    break
                cc += (rest & -rest).bit_length()
                probed = False  # an untried median was searched for this triple
                for m in medians:
                    at = ends[m]
                    if at is None:
                        # after one failed search, an untried median is searched
                        # only if the walks from a, b and cc join at it
                        if probed and not _joins(walks(a)[m], walks(b)[m], walks(cc)[m], work):
                            continue
                        probed = True
                        at = walks(m)
                    if _joins(at[a], at[b], at[cc], work):
                        break
                else:
                    checked = comb(n, 3) - comb(n - a, 3) + comb(n - 1 - a, 2) - comb(n - b, 2)
                    return VerifyReport(False, (a, b, cc), checked + cc - b, c.num_colors)
                if m == front:
                    known |= classes[cls[cc]]
                    pairs[kb] = known
                else:
                    if twins[m] is None:
                        twins[m] = _twins(ends[m])
                    cls_m, classes_m, good_m = twins[m]
                    pairs_m, kb_m = good_m[cls_m[a]], cls_m[b]
                    pairs_m[kb_m] = pairs_m.get(kb_m, 0) | classes_m[cls_m[cc]]
                    medians.remove(m)
                    medians.insert(0, m)
            if medians[0] != start:  # the front moved: step the rest of the row
                todo = every >> 1 >> (b + 1) << (b + 1)
    return VerifyReport(True, None, comb(n, 3), c.num_colors)


# ---------------------------------------------------------------------------
# Safety certificates.

def certificate_colors(
    g: Graph, c: EdgeColoring, dom: Container[int], v: int, paths: Sequence
) -> tuple[frozenset, frozenset, frozenset] | None:
    """The color sets of v's three paths in path order, or None unless the first is
    one edge, each runs along edges of g from v to D, v and the inner vertices are
    pairwise distinct and outside D (so each path is simple and the three internally
    disjoint), and the colors are distinct.  ``dom`` is only tested for membership."""
    if len(paths) != 3 or len(paths[0]) != 2:
        return None
    edges, get = g.edge_set, c.assignment.get
    leg, second, third = paths
    if leg[0] != v or leg[-1] not in dom:
        return None
    b = leg[1]
    e = (v, b) if v < b else (b, v)
    c0 = get(e)
    if c0 is None or e not in edges:
        return None
    walked = []
    for path in (second, third):
        if len(path) < 2 or path[0] != v or path[-1] not in dom:
            return None
        cols = []
        a = v
        for b in path[1:]:
            e = (a, b) if a < b else (b, a)
            col = get(e)
            if col is None or e not in edges:
                return None
            cols.append(col)
            a = b
        walked.append(cols)
    # distinct colors: c0 in neither set, no repeat within a path, disjoint sets
    cols2, cols3 = walked
    s2, s3 = frozenset(cols2), frozenset(cols3)
    if (c0 in s2 or c0 in s3 or len(s2) != len(cols2) or len(s3) != len(cols3)
            or not s2.isdisjoint(s3)):
        return None
    inner = (v, *second[1:-1], *third[1:-1])
    if len(set(inner)) != len(inner):
        return None
    for x in inner:
        if x in dom:
            return None
    return frozenset((c0,)), s2, s3


def verify_certificate(
    g: Graph, c: EdgeColoring, dom: Container[int], cert: SafetyCertificate
) -> bool:
    """``certificate_colors`` of the stored paths, and each recorded color set
    has its path's size and holds its path's colors, which are distinct."""
    sets = certificate_colors(g, c, dom, cert.vertex, cert.paths)
    if sets is None or len(cert.color_sets) != 3:
        return False
    if sets == cert.color_sets:  # the walked sets as a tuple, as the construction records them
        return True
    for along, recorded in zip(sets, cert.color_sets):
        if len(recorded) != len(along) or not along.issubset(recorded):
            return False
    return True


# ---------------------------------------------------------------------------
# Exact minimum 3-rainbow color count.
#
# Backtracking over edge colorings with first-use color canonicalization.
# A rainbow tree with k colors has at most k edges.  Pruning the leaves
# outside triple t from a clash-free tree containing t leaves a clash-free
# tree whose leaves lie in t: it has leaves exactly t, or is a path between
# two vertices of t through the third.  Only these minimal trees are kept,
# each once.  They are edge bitmasks grown from a single edge by one leaf edge
# at a time; the leaf count never falls as a tree grows, and dropping a leaf
# edge reaches each from a smaller one, so trees with 4 leaves are dropped at
# once.  Trees are numbered in growth order, and a set of trees is a bitset
# of their ids.  The search holds the alive trees and, per color, the trees
# through an edge of that color, so coloring edge e with c kills the alive
# trees through e that meet c in one AND.  Before that every triple has an
# alive tree, and only trees through e can die.  So the branch dies exactly
# when a triple served by some tree through e has no alive tree left: the
# search tests only those, e's at-risk list, fewest trees first (fail-first),
# and any order of that list dies at the same nodes with the same witness.

def _tree_levels(g: Graph) -> Iterator[tuple[int, list[int], list[list[int]] | None]]:
    """For k = 2, 3, ...: the number of minimal trees of 2..k edges, each
    edge's bitset of the trees through it, and each edge's at-risk list: the
    bitset of the trees serving each triple that a tree through the edge
    serves, fewest trees first, or None while some triple has no tree (k <
    sdiam3).  Tree ids follow growth order, so the trees of k are a prefix of
    those of k + 1."""
    ends = [1 << u | 1 << v for u, v in g.edges]
    triples = itertools.combinations(range(g.n), 3)
    triple_id = {1 << a | 1 << b | 1 << c: ti for ti, (a, b, c) in enumerate(triples)}
    on_edge = [0] * len(ends)
    served = [0] * len(triple_id)
    count = 0
    level = {1 << ei: (e, e) for ei, e in enumerate(ends)}  # tree -> (vertices, leaves)
    while True:
        grown: dict = {}
        for tree, (verts, leaves) in level.items():
            for ei, e in enumerate(ends):
                if (e & verts).bit_count() != 1:
                    continue
                new = tree | 1 << ei
                tips = leaves & ~e | e & ~verts  # the new vertex replaces its anchor
                if new in grown or tips.bit_count() > 3:
                    continue
                grown[new] = (verts | e, tips)
                bit = 1 << count  # a new tree: its id is its first-growth rank
                count += 1
                if tips.bit_count() == 3:
                    served[triple_id[tips]] |= bit
                else:  # a path serves its ends with each inner vertex
                    inner = (verts | e) ^ tips
                    while inner:
                        low = inner & -inner
                        served[triple_id[tips | low]] |= bit
                        inner ^= low
                while new:
                    low = new & -new
                    on_edge[low.bit_length() - 1] |= bit
                    new ^= low
        level = grown
        at_risk = None if 0 in served else [
            sorted((s for s in served if s & trees), key=int.bit_count) for trees in on_edge
        ]
        yield count, on_edge[:], at_risk


def _search_coloring(g: Graph, k: int, count: int, through: list[int],
                     at_risk: list[list[int]] | None) -> dict | None:
    """First k-coloring (canonical order) under which every triple keeps a
    rainbow tree, given the ``_tree_levels`` entry of k, or None."""
    if at_risk is None:
        return None
    m = g.m
    clash = [0] * (k + 1)  # trees through an edge of each color
    colors = [0] * m
    nodes = 0
    budget = EXACT_NODE_BUDGET

    def dfs(ei: int, used: int, alive: int) -> bool:
        # alive: the trees that the colors of edges 0..ei-1 leave clash-free
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise LimitError(f"exact search node budget {budget} exceeded")
        if ei == m:
            return True
        trees, risk = through[ei], at_risk[ei]
        for col in range(1, min(k, used + 1) + 1):
            mask = clash[col]
            killed = trees & mask & alive
            left = alive ^ killed
            for served in risk if killed else ():  # no kill, no dead triple
                if not served & left:
                    break  # a dead triple
            else:
                clash[col] = mask | trees
                colors[ei] = col
                if dfs(ei + 1, max(used, col), left):
                    return True
                clash[col] = mask
        return False

    if not dfs(0, 0, (1 << count) - 1):
        return None
    return dict(zip(g.edges, colors))


def exact_rx3_coloring(
    g: Graph,
    kmax: int = EXACT_KMAX,
    max_edges: int = EXACT_MAX_EDGES,
) -> tuple[int, dict] | None:
    """(minimum color count, witness coloring), or None above kmax."""
    if not 1 <= kmax <= EXACT_KMAX:
        raise LimitError(f"kmax must be in 1..{EXACT_KMAX}, got {kmax}")
    if max_edges < 0:
        raise LimitError(f"max_edges must be >= 0, got {max_edges}")
    if g.m > max_edges:
        raise LimitError(f"exact solver limited to {max_edges} edges, got {g.m}")
    if g.n < 3:
        raise GraphError(f"3-rainbow index needs n >= 3, got n={g.n}")
    if not is_connected(g):
        raise GraphError("graph must be connected")
    # a triple has a tree of at most k edges iff its Steiner distance is at
    # most k, so the levels below sdiam3 search nothing
    for k, level in zip(range(2, kmax + 1), _tree_levels(g)):
        found = _search_coloring(g, k, *level)
        if found is not None:
            return k, found
    return None


def exact_rx3(
    g: Graph, kmax: int = EXACT_KMAX, max_edges: int = EXACT_MAX_EDGES
) -> int | None:
    """Minimum number of colors in a 3-rainbow coloring, or None if it
    exceeds kmax."""
    result = exact_rx3_coloring(g, kmax=kmax, max_edges=max_edges)
    return None if result is None else result[0]
