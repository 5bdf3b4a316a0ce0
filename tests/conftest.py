"""Shared oracles, fixture graphs and hypothesis strategies.

One oracle per fact.  Where a definition pins the fact, the oracle is that
definition, checked by plain enumeration and set logic, so the library never
checks itself against its own machinery: `oracle_certificate` is a safety
certificate, `oracle_minimal_trees` the exact solver's trees, `oracle_steiner3`
a Steiner distance and `check_final_pass` what the +6 construction's
certificates promise.  Where no definition fixes the output, an earlier
version of the library routine is kept, and its docstring says why:
`oracle_is_3_rainbow`, `oracle_exact_rx3_coloring` and `oracle_cds_heuristic`.
`tests/mutants.py` measures what the tests catch (DECISIONS.md entry 15).
"""
from __future__ import annotations

import collections
import heapq
import itertools
import math
import random

import pytest
from hypothesis import strategies as st

import rainbow3.coloring as coloring
import rainbow3.verify as verify
from rainbow3 import (
    CLASS_TABLE,
    ColoringInternalError,
    EdgeColoring,
    LimitError,
    build_graph,
    certificate_colors,
    class_membership,
    edge_key,
    three_way_coloring,
)


# ---------------------------------------------------------------------------
# Oracles.

def oracle_connected(vertices, edges) -> bool:
    verts = set(vertices)
    if not verts:
        return True
    adj = {v: set() for v in verts}
    for u, v in edges:
        if u in verts and v in verts:
            adj[u].add(v)
            adj[v].add(u)
    seen = {min(verts)}
    stack = [min(verts)]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


def oracle_components_minus(g, dom) -> list:
    """Each outside vertex's own BFS over G - D; the distinct vertex sets as
    sorted tuples, in smallest-vertex order."""
    dset = set(dom)
    comps = set()
    for s in range(g.n):
        if s in dset:
            continue
        seen, queue = {s}, [s]
        for u in queue:
            for w in g.adj[u]:
                if w not in dset and w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.add(tuple(sorted(seen)))
    return sorted(comps)


def oracle_steiner3(g, terms) -> int:
    """Minimum tree size containing the terminals, by enumerating vertex
    subsets whose induced subgraph is connected, smallest first."""
    terms = set(terms)
    others = [v for v in range(g.n) if v not in terms]
    for extra in range(len(others) + 1):
        for combo in itertools.combinations(others, extra):
            verts = terms | set(combo)
            if oracle_connected(verts, g.edges):
                return len(verts) - 1
    return None


def oracle_is_tree(edges) -> bool:
    verts = set()
    for u, v in edges:
        verts.add(u)
        verts.add(v)
    if len(edges) != len(verts) - 1:
        return False
    return oracle_connected(verts, edges)


def oracle_rainbow_s_tree(g, coloring, s) -> bool:
    """Subtree enumeration: some edge subset forms a tree containing s with
    pairwise distinct colors."""
    s = set(s)
    for size in range(max(2, len(s) - 1), g.n):
        for combo in itertools.combinations(g.edges, size):
            cols = [coloring.assignment[e] for e in combo]
            if len(set(cols)) != size:
                continue
            if not oracle_is_tree(combo):
                continue
            verts = set()
            for u, v in combo:
                verts.add(u)
                verts.add(v)
            if s <= verts:
                return True
    return False


def oracle_rainbow_report(g, coloring):
    """`is_3_rainbow`'s (verdict, witness, triples_checked) by subtree
    enumeration: the first triple in lexicographic order with no rainbow
    tree, and its 1-based rank."""
    for rank, s in enumerate(itertools.combinations(range(g.n), 3), start=1):
        if not oracle_rainbow_s_tree(g, coloring, s):
            return False, s, rank
    return True, None, math.comb(g.n, 3)


def oracle_is_3_rainbow(g, c, fronts=None):
    """`is_3_rainbow` with one join per triple: every triple tries the
    medians in move-to-front order, each median searched when first tried.
    The search, the join and the budget are looked up in `rainbow3.verify`
    at call time, so a test can patch and count them.  A ``fronts`` list
    collects each median as it first reaches the front, median 0 first.
    Kept as a version copy: no definition fixes which medians a verifier
    searches or in what order, only this algorithm."""
    if g.n < 3:
        return verify.VerifyReport(True, None, 0, c.num_colors)
    adj_bits = verify._color_bits(g, c)
    work = [verify.VERIFY_WORK_BUDGET]
    ends = [None] * g.n
    medians = list(range(g.n))
    if fronts is not None:
        fronts.append(0)
    checked = 0
    for a, b, cc in itertools.combinations(range(g.n), 3):
        checked += 1
        for m in medians:
            if ends[m] is None:
                ends[m] = verify._single_source_masks(g.n, adj_bits, m, work)
            at = ends[m]
            if verify._joins(at[a], at[b], at[cc], work):
                break
        else:
            return verify.VerifyReport(False, (a, b, cc), checked, c.num_colors)
        if medians[0] != m:
            if fronts is not None and m not in fronts:
                fronts.append(m)
            medians.remove(m)
            medians.insert(0, m)
    return verify.VerifyReport(True, None, checked, c.num_colors)


def _oracle_trees_by_triple(g, k):
    """For each vertex triple, in lexicographic order, every subtree of 2..k
    edges containing it, as an edge bitmask."""
    ends = [1 << u | 1 << v for u, v in g.edges]
    level = {1 << ei: e for ei, e in enumerate(ends)}  # tree -> its vertex mask
    per_triple = {t: [] for t in itertools.combinations(range(g.n), 3)}
    for _ in range(1, k):
        grown = {}
        for tree, verts in level.items():
            for ei, e in enumerate(ends):
                if (e & verts).bit_count() == 1:
                    grown[tree | 1 << ei] = verts | e
        level = grown
        for tree, verts in level.items():
            inside = [v for v in range(g.n) if verts >> v & 1]
            for t in itertools.combinations(inside, 3):
                per_triple[t].append(tree)
    return per_triple


def oracle_minimal_trees(g, k):
    """Each triple's minimal trees of 2..k edges, in triple order: the
    subtrees containing it whose leaves all lie in it."""
    minimal = {}
    for t, trees in _oracle_trees_by_triple(g, k).items():
        minimal[t] = set()
        for tree in trees:
            degree = collections.Counter(
                x for ei, e in enumerate(g.edges) if tree >> ei & 1 for x in e
            )
            if all(x in t for x, d in degree.items() if d == 1):
                minimal[t].add(tree)
    return minimal


def _oracle_search_coloring(g, k):
    """First k-coloring (canonical order) under which every triple keeps a
    clash-free subtree, or None; one entry per (triple, subtree) pair."""
    per_triple = list(_oracle_trees_by_triple(g, k).values())
    if not all(per_triple):
        return None
    m = g.m
    tree_mask = [tree for lst in per_triple for tree in lst]
    tree_triple = [ti for ti, lst in enumerate(per_triple) for _ in lst]
    trees_with_edge = [
        [tid for tid, tree in enumerate(tree_mask) if tree >> ei & 1] for ei in range(m)
    ]
    alive = [True] * len(tree_mask)
    alive_count = [len(lst) for lst in per_triple]
    by_color = [0] * (k + 1)  # edge mask of each color
    nodes = 0
    budget = verify.EXACT_NODE_BUDGET

    def assign(ei, col):
        """Kill trees that now carry a color conflict; None on a dead triple."""
        killed = []
        for tid in trees_with_edge[ei]:
            if alive[tid] and tree_mask[tid] & by_color[col]:
                alive[tid] = False
                killed.append(tid)
                ti = tree_triple[tid]
                alive_count[ti] -= 1
                if alive_count[ti] == 0:
                    revive(killed)
                    return None
        by_color[col] |= 1 << ei
        return killed

    def revive(killed):
        for tid in killed:
            alive[tid] = True
            alive_count[tree_triple[tid]] += 1

    def dfs(ei, used):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise LimitError(f"exact search node budget {budget} exceeded")
        if ei == m:
            return True
        for col in range(1, min(k, used + 1) + 1):
            killed = assign(ei, col)
            if killed is None:
                continue
            if dfs(ei + 1, max(used, col)):
                return True
            by_color[col] ^= 1 << ei
            revive(killed)
        return False

    if not dfs(0, 0):
        return None
    return {
        e: next(col for col, mask in enumerate(by_color) if mask >> ei & 1)
        for ei, e in enumerate(g.edges)
    }


def oracle_exact_rx3_coloring(g, kmax=verify.EXACT_KMAX):
    """`exact_rx3_coloring` with every subtree of up to k edges stored once
    per triple it contains: (k, witness) for the first k from the Steiner
    3-diameter (by subset enumeration) up to kmax, or None.  Edge limits are
    not checked; the node budget is read from `rainbow3.verify` at call time.
    Kept as a version copy: the witness and the nodes a search spends are
    fixed by its canonical search order, not by any definition of rx3."""
    triples = itertools.combinations(range(g.n), 3)
    lower = max([2] + [oracle_steiner3(g, t) for t in triples])
    for k in range(lower, kmax + 1):
        found = _oracle_search_coloring(g, k)
        if found is not None:
            return k, found
    return None


def oracle_cds_heuristic(g) -> frozenset:
    """`cds_heuristic` with its earlier heap: every count decrement of a tree
    vertex pushes a fresh entry, and stale entries are skipped on pop.
    Returns the internal vertices.  Kept as a version copy: no definition
    fixes the greedy's tie order, only the algorithm."""
    if g.n == 1:
        return frozenset({0})
    root = max(range(g.n), key=lambda v: (g.degree(v), -v))
    outside = [len(nbrs) for nbrs in g.adj]
    in_tree = [False] * g.n
    heap = []

    def join(w):
        in_tree[w] = True
        for x in g.adj[w]:
            outside[x] -= 1
            if in_tree[x]:
                heapq.heappush(heap, (-outside[x], x))
        heapq.heappush(heap, (-outside[w], w))

    join(root)
    size = 1
    internal = set()
    while size < g.n:
        neg_new, best_v = heapq.heappop(heap)
        if -neg_new != outside[best_v]:
            continue
        internal.add(best_v)
        for w in g.adj[best_v]:
            if not in_tree[w]:
                join(w)
                size += 1
    return frozenset(internal)


def pickable_bruteforce(cu, cv, cw) -> bool:
    """Pickability by its definition: try all 27 path selections; true iff some
    selection has pairwise-disjoint color sets (duplicate-free multiset union)."""
    triples = (tuple(map(frozenset, cu)), tuple(map(frozenset, cv)), tuple(map(frozenset, cw)))
    for i, j, k in itertools.product(range(3), repeat=3):
        a, b, c = triples[0][i], triples[1][j], triples[2][k]
        if len(a) + len(b) + len(c) == len(a | b | c):
            return True
    return False


def oracle_certificate(g, c, dom, v, paths, recorded=None):
    """A safety certificate by its definition: the three paths' color sets,
    or None unless there are three paths from v into D, the first (the leg)
    one edge; every step is a colored edge of g; v and the inner vertices are
    pairwise distinct and outside D, and each path ends at its first vertex
    in D; and all path colors are distinct.  With ``recorded``, also None
    unless it holds three sets, each equal to its path's colors."""
    if len(paths) != 3 or len(paths[0]) != 2:
        return None
    visited, colors, sets = [v], [], []
    for path in paths:
        if len(path) < 2 or path[0] != v or path[-1] not in dom:
            return None
        if any(x in dom for x in path[:-1]) or not all(map(g.has_edge, path, path[1:])):
            return None
        cols = [c.assignment.get(edge_key(a, b)) for a, b in zip(path, path[1:])]
        visited += path[1:-1]
        colors += cols
        sets.append(frozenset(cols))
    if None in colors or len(set(colors)) != len(colors) or len(set(visited)) != len(visited):
        return None
    if recorded is not None and (
        len(recorded) != 3 or any(set(r) != s for r, s in zip(recorded, sets))
    ):
        return None
    return tuple(sets)


def all_class_triples() -> list[tuple[frozenset, ...]]:
    """The 41 table triples, class 0 through 6, in listed order."""
    return [t for label in range(7) for t in CLASS_TABLE[label]]


def stage2_rule_keys() -> list[tuple]:
    """Every (case, h mod 3, height offset, leg-recolored) key the stage-2
    dispatcher can be asked for, listed independently of its rule table."""
    keys = []
    for hmod in range(3):
        for dh in (0, 1):
            keys.append((1, hmod, dh, False))
        for dh in (-1, 0, 1):
            keys.append((2, hmod, dh, False))
            keys.append((3, hmod, dh, False))
            if dh in (-1, 0):
                keys.append((2, hmod, dh, True))
                keys.append((3, hmod, dh, True))
        for dh in (-1, 0):
            keys.append((4, hmod, dh, False))
            keys.append((4, hmod, dh, True))
    return keys


def threshold_from_weights(weights, threshold: float):
    """The threshold graph of the weights: edge uv iff w(u)+w(v) >= threshold."""
    n = len(weights)
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if weights[i] + weights[j] >= threshold
    ]
    return build_graph(n, edges)


def oracle_dominates(g, dset, k=1, way=0) -> bool:
    """Plain set logic: no vertex outside ``dset`` has fewer than k neighbors
    inside or degree below way, and ``dset`` induces a connected subgraph."""
    return all(
        v in dset or (len(g.adj[v]) >= way and sum(1 for w in g.adj[v] if w in dset) >= k)
        for v in range(g.n)
    ) and oracle_connected(dset, g.edges)


def oracle_min_dominating(g, k=1, way=0):
    """First subset in `itertools.combinations` order (by size, then
    lexicographic) that `oracle_dominates`."""
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if oracle_dominates(g, set(combo), k, way):
                return set(combo)


# ---------------------------------------------------------------------------
# Checked construction.

def check_final_pass(g, col, dset, certs) -> None:
    """What the +6 final pass promises: one certificate per outside vertex,
    in vertex order, whose color sets are its paths' colors under the
    finished coloring, found in the class table, equal signatures being one
    object."""
    assert [cert.vertex for cert in certs] == [v for v in range(g.n) if v not in dset]
    signatures = {}
    for cert in certs:
        assert cert.color_sets == certificate_colors(g, col, dset, cert.vertex, cert.paths)
        assert signatures.setdefault(cert.color_sets, cert.color_sets) is cert.color_sets
        assert class_membership(cert.color_sets) is not None


def checked_three_way_coloring(g, dom):
    """`three_way_coloring` with `stage2_repair_step` wrapped: after each
    repair step every vertex certified so far is re-verified under the
    component's colors, and a certificate that stopped verifying raises
    ColoringInternalError.  Checks that every reported repair step was wrapped,
    and `check_final_pass` on the result."""
    dset = frozenset(getattr(dom, "vertices", dom))
    step = coloring.stage2_repair_step
    checked = []

    def checked_step(g, state, w):
        key = step(g, state, w)
        snapshot = EdgeColoring.from_dict(state.colors)
        for x, (paths, _) in sorted(state.certs.items()):
            if certificate_colors(g, snapshot, dset, x, paths) is None:
                raise ColoringInternalError(
                    f"certificate of vertex {x} does not verify (after a repair step)"
                )
        checked.append(w)
        return key

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "stage2_repair_step", checked_step)
        result = three_way_coloring(g, dom)
    col, certs, report = result
    assert len(checked) == report.stage2_steps
    check_final_pass(g, col, dset, certs)
    return result


# ---------------------------------------------------------------------------
# Fixture builders.

def hub_graph(comp_edges, n_comp, spare=()):
    """Component vertices 0..n_comp-1 all legged to hub n_comp, second hub
    n_comp+1 supplying extra legs to ``spare``; D is the two hubs."""
    h, h2 = n_comp, n_comp + 1
    edges = list(comp_edges) + [(v, h) for v in range(n_comp)] + [(h, h2)]
    edges += [(v, h2) for v in spare]
    return build_graph(n_comp + 2, edges), frozenset({h, h2})


def wheel_graph(n):
    """Cycle C_n plus a hub adjacent to every rim vertex; D = {hub}."""
    cyc = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n) for i in range(n)]
    return build_graph(n + 1, cyc + spokes), frozenset({n})


def prism_graph(k):
    """Circular ladder on 2k rim vertices plus a hub; D = {hub}."""
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    rungs = [(i, k + i) for i in range(k)]
    spokes = [(v, 2 * k) for v in range(2 * k)]
    return build_graph(2 * k + 1, outer + inner + rungs + spokes), frozenset({2 * k})


def random_connected(seed):
    """Seeded connected graph on 3..8 vertices with at most 14 edges: a
    random attachment tree plus random extra edges."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    pairs = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    edges.update(rng.sample(pairs, rng.randint(0, min(len(pairs), 14 - len(edges)))))
    return build_graph(n, sorted(edges))


# The worked small example: component 0-1, 0-2, 2-3 over D={4,5}, where 3 is
# a level-2 leaf under the type-II subtree and both leaves own a spare leg.
EXAMPLE_GRAPH_EDGES = [
    (0, 1), (0, 2), (2, 3),
    (0, 4), (1, 4), (2, 4), (3, 4),
    (1, 5), (3, 5), (4, 5),
]


@pytest.fixture
def example_graph():
    return build_graph(6, EXAMPLE_GRAPH_EDGES), frozenset({4, 5})


# ---------------------------------------------------------------------------
# Hypothesis strategies.

@st.composite
def connected_graphs(draw, min_n=2, max_n=8):
    """Random connected graph: a random attachment tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.add((parent, v))
    pairs = list(itertools.combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    edges.update(extra)
    return build_graph(n, edges)


@st.composite
def graphs_with_subsets(draw, min_n=2, max_n=8):
    g = draw(connected_graphs(min_n, max_n))
    dset = draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    k = draw(st.integers(1, 4))
    return g, frozenset(dset), k


@st.composite
def colored_graphs(draw, max_n=7, max_colors=4):
    g = draw(connected_graphs(min_n=3, max_n=max_n))
    cols = {e: draw(st.integers(1, max_colors)) for e in g.edges}
    return g, cols


@st.composite
def many_colored_graphs(draw):
    """A Hamiltonian path plus about three quarters of the other pairs on 6
    or 7 vertices, colored with a drawn number of colors, up to one per edge."""
    n = draw(st.integers(6, 7))
    pairs = list(itertools.combinations(range(n), 2))
    kept = st.sampled_from((False, True, True, True))
    keep = draw(st.lists(kept, min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [p for p, k in zip(pairs, keep) if k or p[1] == p[0] + 1])
    order = draw(st.permutations(range(1, g.m + 1)))
    cap = draw(st.sampled_from(range(1, g.m + 1)))
    return g, {e: min(c, cap) for e, c in zip(g.edges, order)}
