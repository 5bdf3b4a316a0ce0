import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbow3.coloring as coloring
import rainbow3.domination as domination
import rainbow3.graphs as graphs
import rainbow3.verify as verify

from rainbow3 import (
    DominationError,
    EdgeColoring,
    GraphError,
    bfs_tree,
    build_graph,
    certificate_colors,
    check_domination,
    class_membership,
    complete_bipartite,
    complete_graph,
    components_minus,
    cycle_graph,
    dominating_set,
    edge_key,
    french_windmill,
    induced_subgraph,
    inner_coloring,
    is_3_rainbow,
    k_dominating,
    k_way,
    min_connected_k_dominating_set,
    order_dangerous,
    random_min_degree,
    spanning_tree_coloring,
    stage1_periodic,
    stage2_repair_step,
    three_dom_coloring,
    three_way_coloring,
    three_way_dominating_set,
    threshold_example,
    verify_certificate,
)
from rainbow3.coloring import (
    ISOLATED_EDGE_SETS,
    ISOLATED_VERTEX_SETS,
    STAGE1_ROWS,
    STAGE2_RULES,
    ColoringInternalError,
)
from rainbow3.graphs import bfs_distances
from rainbow3 import chain_example
from conftest import (
    check_final_pass,
    checked_three_way_coloring,
    connected_graphs,
    graphs_with_subsets,
    hub_graph,
    prism_graph,
    stage2_rule_keys,
    wheel_graph,
)

# Color-set triples attainable by inner tree vertices after the periodic
# stage, in (first, second, third) order.
STAGE1_SAFE_SETS = {
    (frozenset({1}), frozenset({2, 4}), frozenset({3, 5})),
    (frozenset({2}), frozenset({3, 6}), frozenset({1, 4})),
    (frozenset({3}), frozenset({1, 5}), frozenset({2, 6})),
    (frozenset({1}), frozenset({3, 6}), frozenset({2, 4})),
    (frozenset({2}), frozenset({1, 4}), frozenset({3, 5})),
    (frozenset({3}), frozenset({2, 5}), frozenset({1, 6})),
}


def test_spanning_single_vertex():
    assert spanning_tree_coloring(build_graph(1, [])).num_colors == 0


def test_spanning_k3():
    col = spanning_tree_coloring(complete_graph(3))
    assert col.num_colors == 2
    assert is_3_rainbow(complete_graph(3), col).verdict


def test_spanning_k33():
    g = complete_bipartite(3, 3)
    col = spanning_tree_coloring(g)
    assert col.num_colors == 5
    assert is_3_rainbow(g, col).verdict


def test_inner_single_vertex_empty():
    g = french_windmill(2).graph
    col, method = inner_coloring(g, {0}, offset=6)
    assert col.num_colors == 0 and method == "empty"


def test_inner_triangle_two_colors():
    made = threshold_example(4)
    ys = [made.labels[f"y{i}"] for i in (1, 2, 3)]
    col, method = inner_coloring(made.graph, ys, offset=3)
    assert col.num_colors == 2 and method == "exact"
    assert set(col.assignment.values()) == {4, 5}


def test_inner_k33_three_colors():
    made = chain_example(6, 10)
    dom = [made.labels[x] for x in ("a4", "a5", "a6", "b1", "b2", "b3")]
    col, method = inner_coloring(made.graph, dom, offset=6)
    assert col.num_colors == 3 and method == "exact"
    assert set(col.assignment.values()) == {7, 8, 9}


def test_inner_disconnected_rejected():
    g = cycle_graph(6)
    with pytest.raises(Exception, match="disconnected"):
        inner_coloring(g, {0, 3}, offset=6)


def test_inner_rejects_a_member_that_is_not_a_vertex():
    for bad in (-1, 6, 1.5):
        with pytest.raises(GraphError, match=r"^vertex .+ is not a vertex of g \(n=6\)$"):
            inner_coloring(cycle_graph(6), {0, 1, bad}, offset=6)


def _relabeled_spanning(g, dom, offset):
    """spanning_tree_coloring of the relabeled G[D], shifted by offset, after
    checking it against the bfs_tree coloring it replaced."""
    sub, back = induced_subgraph(g, dom)
    colors = spanning_tree_coloring(sub).assignment
    tree = bfs_tree(sub, range(sub.n), 0)
    want = {edge_key(v, tree.parent[v]): c for c, v in enumerate(tree.order[1:], start=1)}
    want.update((e, 1) for e in sub.edges if e not in want)
    assert list(colors.items()) == list(want.items())
    return {edge_key(back[u], back[v]): c + offset for (u, v), c in colors.items()}


@given(st.integers(9, 120), st.integers(1, 5), st.integers(0, 2**31 - 1), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_inner_spanning_route_is_the_relabeled_subgraph_coloring(n, delta, seed, offset):
    # G[D] for D a distance ball around vertex seed % n (connected), grown
    # until it is past the exact branch, and for D every vertex
    g = random_min_degree(n, min(delta, n - 1), seed)
    dist = bfs_distances(g, seed % n)
    r = next(r for r in range(n) if sum(d <= r for d in dist) > 8)
    for dom in ([v for v in range(n) if dist[v] <= r], range(n)):
        col, method = inner_coloring(g, dom, offset)
        assert method == "spanning"
        assert list(col.assignment.items()) == list(_relabeled_spanning(g, dom, offset).items())
    far = [v for v in range(n) if dist[v] > r + 1]
    if far:
        dom = [v for v in range(n) if dist[v] <= r] + far[:1]
        with pytest.raises(GraphError, match=r"^G\[D\] is disconnected$"):
            inner_coloring(g, dom, offset)
        with pytest.raises(GraphError, match="^graph must be connected$"):
            _relabeled_spanning(g, dom, offset)


def test_three_dom_threshold():
    made = threshold_example(5)
    dom = min_connected_k_dominating_set(made.graph, 3)
    col, report = three_dom_coloring(made.graph, dom)
    assert col.num_colors <= 5
    assert report.d == 2
    assert is_3_rainbow(made.graph, col).verdict


def test_three_dom_chain():
    made = chain_example(6, 10)
    dom = frozenset(made.labels[x] for x in ("a4", "a5", "a6", "b1", "b2", "b3"))
    col, report = three_dom_coloring(made.graph, dom)
    assert col.num_colors <= 6
    assert is_3_rainbow(made.graph, col).verdict


def test_three_dom_full_vertex_set_reduces_to_inner():
    g = complete_graph(5)
    col, report = three_dom_coloring(g, range(5))
    assert col.num_colors == report.d
    assert is_3_rainbow(g, col).verdict


def test_three_dom_rejects_weak_set():
    g = french_windmill(3).graph
    with pytest.raises(DominationError):
        three_dom_coloring(g, {0})


# ---------------------------------------------------------------------------
# Stage 1.

def _component_state(g, dom):
    comp = components_minus(g, dom)[0]
    compset = set(comp)
    root = min(v for v in comp if sum(1 for w in g.adj[v] if w in compset) >= 2)
    tree = bfs_tree(g, comp, root)
    return tree, stage1_periodic(g, dom, tree)


def _walked_sets(state, paths):
    return [frozenset(state.colors[edge_key(a, b)] for a, b in zip(p, p[1:])) for p in paths]


def test_stage1_root_certificate(example_graph):
    # the root's record has no sets: stage 2 may reroute its second path
    g, dom = example_graph
    _, state = _component_state(g, dom)
    paths, built = state.certs[0]
    assert paths == ((0, 4), (0, 1, 4), (0, 2, 4)) and built is None
    assert _walked_sets(state, paths) == [{2}, {1, 4}, {3, 5}]


def test_stage1_type_two_nonleaf_certificate(example_graph):
    g, dom = example_graph
    _, state = _component_state(g, dom)
    # vertex 2 is the last first-level vertex and has a child
    assert state.colors[edge_key(2, state.tree.parent[2])] == 5
    assert state.colors[edge_key(2, state.leg[2])] == 3
    paths, built = state.certs[2]
    assert _walked_sets(state, paths) == list(built) == [{3}, {2, 5}, {1, 6}]


def test_stage1_certifies_a_level2_leaf_by_its_spare_leg(example_graph):
    # leaf 3 legs into 4 with 1 under tree edge 6, its parent 2 legs with 3;
    # its spare leg to 5 takes 2, the least color on neither path
    g, dom = example_graph
    _, state = _component_state(g, dom)
    assert state.colors[edge_key(3, state.leg[3])] == 1
    assert state.colors[edge_key(3, state.tree.parent[3])] == 6
    assert state.colors[edge_key(3, 5)] == 2
    paths, built = state.certs[3]
    assert paths == ((3, 4), (3, 5), (3, 2, 4))
    assert _walked_sets(state, paths) == list(built) == [{1}, {2}, {3, 6}]
    assert state.dangerous == []  # leaf 1 owns a spare leg too


def test_stage1_rejects_small_component():
    g, dom = hub_graph([(0, 1)], 2)
    comp = components_minus(g, dom)[0]
    tree = bfs_tree(g, comp, 0)
    with pytest.raises(Exception, match=">= 3"):
        stage1_periodic(g, dom, tree)


def test_stage1_rejects_a_root_with_one_child():
    # the path 0-1-2 over hub 3, rooted at an end: the caller's tree is at
    # fault, since three_way_coloring roots each tree at a vertex of degree 2
    g = build_graph(4, [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)])
    with pytest.raises(GraphError, match="two component neighbors"):
        stage1_periodic(g, {3}, bfs_tree(g, [0, 1, 2], 0))


def test_stage1_rejects_a_tree_vertex_with_no_leg():
    # the path 0-1-2 rooted at 1, over hub 3, which misses vertex 2
    g = build_graph(4, [(0, 1), (1, 2), (0, 3), (1, 3)])
    with pytest.raises(DominationError, match="^vertex 2 has no leg into D$"):
        stage1_periodic(g, {3}, bfs_tree(g, [0, 1, 2], 1))


@pytest.mark.parametrize("n", range(6, 13))
def test_stage1_nonleaf_sets_are_the_six_listed(n):
    g, dom = wheel_graph(n)
    _, state = _component_state(g, dom)
    for v, (paths, built) in state.certs.items():
        sets = tuple(_walked_sets(state, paths))
        assert sets in STAGE1_SAFE_SETS, (n, v, sets)
        assert built == (None if v == state.tree.root else sets)
    leaves = {v for v in state.tree.order[1:] if not state.tree.children[v]}
    assert set(state.dangerous) == leaves
    assert set(state.certs) == set(state.tree.order) - leaves


@given(graphs_with_subsets(min_n=6, max_n=12))
@settings(max_examples=200, deadline=None)
def test_stage1_leaves_are_certified_by_a_spare_leg_or_dangerous(case):
    # a leaf whose first D-neighbor after its leg exists is certified by
    # (leg, spare leg, path through the parent), the spare leg taking the
    # least color on neither other path; any other leaf is dangerous.  An
    # outside vertex with no D-neighbor gets a leg to min(D), which keeps
    # the components of G - D and gives it exactly one
    g, dset, _ = case
    extra = [(v, min(dset)) for v in range(g.n) if v not in dset and dset.isdisjoint(g.adj[v])]
    g = build_graph(g.n, [*g.edges, *extra])
    for comp in components_minus(g, dset):
        if len(comp) < 3:
            continue
        root = next(v for v in comp if len(set(comp).intersection(g.adj[v])) >= 2)
        state = stage1_periodic(g, dset, bfs_tree(g, comp, root))
        tree, snapshot = state.tree, EdgeColoring.from_dict(state.colors)
        leaves = [v for v in tree.order[1:] if not tree.children[v]]
        assert state.dangerous == [v for v in leaves if v not in state.certs]
        for v in leaves:
            feet = [w for w in g.adj[v] if w in dset]
            if v in state.dangerous:
                assert len(feet) == 1
                continue
            p = tree.parent[v]
            paths, built = state.certs[v]
            assert paths == ((v, feet[0]), (v, feet[1]), (v, p, state.leg[p]))
            assert built == certificate_colors(g, snapshot, dset, v, paths)
            assert built[1] == {min(c for c in range(1, 7) if c not in built[0] | built[2])}


# ---------------------------------------------------------------------------
# Stage 2: dangerous-leaf ordering and the repair dispatch.

def test_order_dangerous_rules():
    # path-shaped subtrees of different first-level indices and depths
    g = build_graph(
        9,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (5, 6), (3, 7), (3, 8)],
    )
    tree = bfs_tree(g, range(9), 0)
    assert tree.first_level == (1, 2, 3)
    # R1: higher first-level index first
    assert order_dangerous([4, 6], tree) == [6, 4]
    # R2: same subtree, smaller height first
    assert order_dangerous([5, 6], tree) == [5, 6]
    # R3: same subtree and height, BFS order decides
    assert order_dangerous([8, 7], tree) == [7, 8]
    assert order_dangerous([4, 6, 7, 8], tree) == [7, 8, 6, 4]
    for outside in (tree.root, 9):
        with pytest.raises(KeyError):
            order_dangerous([4, outside], tree)


@pytest.mark.parametrize("n", [10, 40, 120, 300])
def test_order_dangerous_matches_the_position_key(n):
    # ranking by position in tree.order gives the old sort key on every
    # component of G - D, with BFS position looked up in a dict
    for seed in range(5):
        g = random_min_degree(n, 3, seed)
        for comp in components_minus(g, three_way_dominating_set(g).vertices):
            tree = bfs_tree(g, comp, comp[-1])
            rank = {v: i for i, v in enumerate(tree.first_level)}
            pos = {v: i for i, v in enumerate(tree.order)}
            pending = list(tree.order[1:])
            random.Random(seed).shuffle(pending)
            for a in (pending, pending[::2]):
                assert order_dangerous(a, tree) == sorted(
                    a, key=lambda v: (-rank[tree.pi[v]], tree.height[v], pos[v])
                )


def test_stage2_table_covers_every_key():
    # the dispatcher reads only the table, so it must hold every reachable key and no other
    keys = stage2_rule_keys()
    assert len(keys) == len(set(keys)) == 48
    assert set(keys) == set(STAGE2_RULES)


def test_stage2_expected_triples_are_class_triples():
    # the table's set sizes fix the certificate paths, so tie them to the class table
    expected = [
        t for rule in STAGE2_RULES.values() for t in (rule.expect_wi, rule.expect_v) if t
    ]
    assert len(expected) == 48 + 18  # every key certifies w, 18 of them v too
    assert all(class_membership(t) is not None for t in expected)
    assert all(len(s) in (2, 3) for t in expected for s in t[1:])


def test_stage1_and_small_component_signatures_are_class_triples():
    # with the stage-2 rows above, every signature the construction records
    # without a walk is a table entry; a spare-leg leaf's sets are checked
    # by the final pass when first seen
    stage1 = [row[2] for rows in STAGE1_ROWS for row in rows]
    assert set(stage1) == STAGE1_SAFE_SETS
    small = [ISOLATED_VERTEX_SETS, *ISOLATED_EDGE_SETS]
    assert all(class_membership(t) is not None for t in stage1 + small)


def test_stage2_recolors_only_the_processed_leg():
    # two sibling leaves under the type-II subtree joined by two chords
    g, dom = hub_graph([(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)], 6, spare=[1])
    comp = components_minus(g, dom)[0]
    tree = bfs_tree(g, comp, 0)
    state = stage1_periodic(g, dom, tree)
    before = dict(state.colors)
    for w in order_dangerous([3, 4, 5], tree):
        if w not in state.certs:
            stage2_repair_step(g, state, w)
    changed = {e for e in before if before[e] != state.colors[e]}
    assert changed == {edge_key(w, state.leg[w]) for w in state.recolored}
    recolored = {w for w, key in state.steps if STAGE2_RULES[key].recolor is not None}
    assert state.recolored == recolored


WHEEL_EXPECTED_RULE = {
    6: (1, 2, 1, False),
    7: (1, 0, 0, False),
    8: (1, 0, 1, False),
    9: (1, 1, 0, False),
    10: (1, 1, 1, False),
    11: (1, 2, 0, False),
}


@pytest.mark.parametrize("n,rule", sorted(WHEEL_EXPECTED_RULE.items()))
def test_wheels_cover_case_one(n, rule):
    g, dom = wheel_graph(n)
    col, certs, report = checked_three_way_coloring(g, dom)
    assert rule in report.rule_keys
    assert is_3_rainbow(g, col).verdict
    assert col.num_colors <= 6


@pytest.mark.parametrize("k", range(3, 10))
def test_prisms_run_clean(k):
    g, dom = prism_graph(k)
    col, certs, report = checked_three_way_coloring(g, dom)
    assert is_3_rainbow(g, col).verdict
    for cert in certs:
        assert class_membership(cert.color_sets) is not None


CRAFTED = {
    (3, 1, 0, True): ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 3)], 5, [4]),
    (2, 2, 0, True): ([(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)], 6, [1]),
    (3, 0, 0, True): ([(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)], 7, [2]),
    (2, 1, 0, True): ([(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)], 8, [1]),
}


@pytest.mark.parametrize("rule", sorted(CRAFTED))
def test_crafted_components_hit_recolored_target_rows(rule):
    comp_edges, n_comp, spare = CRAFTED[rule]
    g, dom = hub_graph(comp_edges, n_comp, spare)
    col, certs, report = checked_three_way_coloring(g, dom)
    assert rule in report.rule_keys
    assert is_3_rainbow(g, col).verdict


def test_dispatcher_diagnoses_tampered_state():
    # a recolored type-I target contradicts the case-1 tables
    g, dom = wheel_graph(7)
    comp = components_minus(g, dom)[0]
    tree = bfs_tree(g, comp, 0)
    state = stage1_periodic(g, dom, tree)
    pending = order_dangerous([v for v in state.dangerous], tree)
    w = pending[0]
    target = [u for u in g.adj[w] if u in set(comp)
              and (min(w, u), max(w, u)) not in state.colors][0]
    state.recolored.add(target)
    with pytest.raises(ColoringInternalError, match="case 1"):
        stage2_repair_step(g, state, w)


def test_dispatcher_checks_target_certificate_before_writing():
    # in the 5-prism, leaf 7 takes row (3, 0, -1, False), whose target must be certified
    g, dom = prism_graph(5)
    tree = bfs_tree(g, components_minus(g, dom)[0], 0)
    state = stage1_periodic(g, dom, tree)
    for w in order_dangerous(state.dangerous, tree):
        if w == 7:
            break
        if w not in state.certs:
            stage2_repair_step(g, state, w)
    trial = copy.deepcopy(state)
    assert stage2_repair_step(g, trial, 7) == (3, 0, -1, False)
    (v,) = {x for e in set(trial.colors) - set(state.colors) for x in e} - {7}
    del state.certs[v]
    before = copy.deepcopy(state)
    with pytest.raises(ColoringInternalError, match=f"leaves target {v} uncertified"):
        stage2_repair_step(g, state, 7)
    assert state == before


def test_first_level_recolor_reroutes_root_path():
    # the processed leaf is the first first-level vertex, whose leg carries
    # the root's stored second path
    g, dom = hub_graph([(0, 1), (0, 2), (0, 3), (1, 2)], 4, spare=[2, 3])
    col, certs, report = checked_three_way_coloring(g, dom)
    assert (3, 1, 0, False) in report.rule_keys
    root_cert = [c for c in certs if c.vertex == 0][0]
    assert root_cert.paths[1][1] == 2  # rerouted through the target vertex
    assert is_3_rainbow(g, col).verdict


# ---------------------------------------------------------------------------
# End-to-end six-extra-color scheme.

@pytest.mark.parametrize("t", [2, 3, 4, 8])
def test_windmill_six_colors_exactly(t):
    g = french_windmill(t).graph
    col, certs, report = three_way_coloring(g, {0})
    assert col.num_colors == 6
    assert report.d == 0
    assert is_3_rainbow(g, col).verdict
    for cert in certs:
        assert verify_certificate(g, col, {0}, cert)
        assert class_membership(cert.color_sets) is not None


def test_isolated_vertex_component_legs():
    # K4 minus the hub leaves three isolated outside vertices
    g = complete_graph(4)
    col, certs, report = three_way_coloring(g, {0, 1, 2})
    # vertex 3 is dominated by three legs colored 1, 2, 3
    sets = [c for c in certs if c.vertex == 3][0].color_sets
    assert sets == (frozenset({1}), frozenset({2}), frozenset({3}))
    assert is_3_rainbow(g, col).verdict


def test_isolated_edge_component():
    # two adjacent outside vertices, each with two legs
    g = build_graph(
        6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5), (2, 4), (2, 5)]
    )
    dom = {2, 3, 4, 5}
    assert check_domination(g, dom, k_way(3))
    col, certs, report = three_way_coloring(g, dom)
    assert col.assignment[(0, 1)] == 4
    assert is_3_rainbow(g, col).verdict
    for cert in certs:
        assert class_membership(cert.color_sets) is not None


def test_example_graph_stage2a_colors(example_graph):
    g, dom = example_graph
    col, certs, report = three_way_coloring(g, dom)
    # the level-2 leaf keeps paths {1},{2},{3,6}: spare leg takes color 2
    assert col.assignment[(3, 5)] == 2
    cert3 = [c for c in certs if c.vertex == 3][0]
    assert cert3.color_sets == (frozenset({1}), frozenset({2}), frozenset({3, 6}))
    # the first-level leaf misses 3: spare leg takes color 3
    assert col.assignment[(1, 5)] == 3
    assert is_3_rainbow(g, col).verdict


def test_three_way_rejects_weak_set():
    g = cycle_graph(6)
    with pytest.raises(DominationError):
        three_way_coloring(g, {0})


@pytest.mark.parametrize("bad", ["a", None, 1.5, -1, [0]])
def test_constructions_reject_a_member_that_is_not_a_vertex(bad):
    # a valid D plus one member that is not a vertex of g, unhashable ones
    # included, is not a D of g
    with pytest.raises(DominationError, match="^D must be a connected 3-dominating set$"):
        three_dom_coloring(complete_graph(5), [*range(5), bad])
    g, dom = wheel_graph(9)
    with pytest.raises(DominationError, match="^D must be a connected three-way dominating set$"):
        three_way_coloring(g, [*dom, bad])


def test_color_budget_and_reserved_palettes():
    g = random_min_degree(18, 3, seed=11)
    dom = three_way_dominating_set(g)
    col, certs, report = three_way_coloring(g, dom)
    assert col.num_colors <= report.d + 6
    assert col.num_colors <= dom.size + 5
    dset = dom.vertices
    for (u, v), c in col.assignment.items():
        if u in dset and v in dset:
            assert c > 6
        else:
            assert 1 <= c <= 6


def test_three_way_fuzz_arbitrary_dominating_sets():
    # arbitrary connected three-way dominating sets, not just constructed
    # ones, with per-step certificate re-verification throughout
    import random as _random

    tested = 0
    for seed in range(260):
        rng = _random.Random(seed)
        n = rng.randrange(7, 24)
        g = random_min_degree(n, 3, seed=seed * 7 + 1)
        dom = None
        for _ in range(40):
            start = rng.randrange(g.n)
            size = rng.randrange(1, max(2, g.n // 2))
            cand = {start}
            frontier = list(g.adj[start])
            while frontier and len(cand) < size:
                w = frontier.pop(rng.randrange(len(frontier)))
                if w not in cand:
                    cand.add(w)
                    frontier.extend(g.adj[w])
            if check_domination(g, cand, k_way(3)):
                dom = frozenset(cand)
                break
        if dom is None or len(dom) == g.n:
            continue
        tested += 1
        col, certs, rep = checked_three_way_coloring(g, dom)
        assert col.num_colors <= rep.d + 6
        assert is_3_rainbow(g, col).verdict, seed
        for c in certs:
            assert class_membership(c.color_sets) is not None, (seed, c.vertex)
    assert tested > 100


@given(connected_graphs(min_n=4, max_n=12))
@settings(max_examples=30, deadline=None)
def test_three_way_property_small(g):
    dom = three_way_dominating_set(g)
    col, certs, report = checked_three_way_coloring(g, dom)
    assert is_3_rainbow(g, col).verdict
    for cert in certs:
        assert verify_certificate(g, col, dom.vertices, cert)
        assert class_membership(cert.color_sets) is not None


@pytest.mark.parametrize("reroute", ["through a non-edge", "to an end outside D"])
def test_final_pass_rejects_a_broken_stored_path(monkeypatch, reroute):
    # the root's third path is moved to a height-2 vertex, which the root
    # does not reach by an edge, or cut short of D; nothing before the final
    # pass reads it
    g, dom = wheel_graph(9)
    real = coloring.stage1_periodic

    def broken(g, dom, tree):
        state = real(g, dom, tree)
        root, z = tree.root, next(v for v in tree.order if tree.height[v] == 2)
        (leg, second, third), built = state.certs[root]
        third = (root, z, state.leg[z]) if reroute == "through a non-edge" else third[:-1]
        state.certs[root] = ((leg, second, third), built)
        return state

    monkeypatch.setattr(coloring, "stage1_periodic", broken)
    with pytest.raises(ColoringInternalError, match=r"vertex 0 does not verify \(final pass\)"):
        three_way_coloring(g, dom)


def test_step_check_catches_a_certificate_broken_mid_run(monkeypatch):
    # a step that gives the root's second path its leg color breaks a stored
    # certificate; the wrapper of checked_three_way_coloring sees it at once
    g, dom = wheel_graph(9)
    real = coloring.stage2_repair_step

    def clashing(g, state, w):
        key = real(g, state, w)
        (leg, second, _), _ = state.certs[state.tree.root]
        state.colors[edge_key(*second[:2])] = state.colors[edge_key(*leg)]
        return key

    monkeypatch.setattr(coloring, "stage2_repair_step", clashing)
    with pytest.raises(ColoringInternalError, match=r"does not verify \(after a repair step\)"):
        checked_three_way_coloring(g, dom)


@pytest.mark.parametrize(("n", "seed", "rewalked"), [(80, 5, 9), (2000, 1, 97)])
def test_final_pass_walks_the_roots_and_the_users_of_recolored_legs(
    monkeypatch, n, seed, rewalked
):
    # the roots of the components with at least 3 vertices and every
    # certificate with a path ending on a leg a stage-2 rule recolored are
    # walked once each, in vertex order; the rest keep their built sets
    g = random_min_degree(n, 3, seed=seed)
    dom = three_way_dominating_set(g)
    walked, states = [], []
    real_walk, real_stage1 = coloring.certificate_colors, coloring.stage1_periodic

    def counted(g, c, dom, v, paths):
        walked.append(v)
        return real_walk(g, c, dom, v, paths)

    def kept(g, dom, tree):
        states.append(real_stage1(g, dom, tree))
        return states[-1]

    def forbidden(*args):
        raise AssertionError("three_way_coloring called verify_certificate")

    monkeypatch.setattr(coloring, "certificate_colors", counted)
    monkeypatch.setattr(coloring, "stage1_periodic", kept)
    monkeypatch.setattr(verify, "verify_certificate", forbidden)
    monkeypatch.setattr(coloring, "verify_certificate", forbidden, raising=False)
    _, certs, report = three_way_coloring(g, dom)
    roots = {state.tree.root for state in states}
    legs = {edge_key(w, state.leg[w]) for state in states for w in state.recolored}
    users = {
        cert.vertex for cert in certs if any(edge_key(*p[-2:]) in legs for p in cert.paths)
    }
    assert legs and users - roots and roots - users
    assert walked == sorted(roots | users)
    assert report.rewalked == len(walked) == rewalked < len(certs)


@pytest.mark.parametrize("delta", [3, 4, 5])
@pytest.mark.parametrize("seed", [1, 3])
def test_final_pass_matches_the_full_walk_at_n_2000(delta, seed):
    g = random_min_degree(2000, delta, seed)
    dom = three_way_dominating_set(g)
    col, certs, report = three_way_coloring(g, dom)
    check_final_pass(g, col, dom.vertices, certs)
    assert report.recolored > 0


def test_final_pass_shares_one_object_per_signature(monkeypatch):
    # the class table is consulted once per distinct signature, and equal
    # signatures are one object
    g = random_min_degree(2000, 3, 1)
    dom = three_way_dominating_set(g)
    looked_up = []
    real = coloring.class_membership

    def counted(sets):
        looked_up.append(sets)
        return real(sets)

    monkeypatch.setattr(coloring, "class_membership", counted)
    _, certs, _ = three_way_coloring(g, dom)
    signatures = {cert.color_sets for cert in certs}
    assert len({id(cert.color_sets) for cert in certs}) == len(signatures)
    assert sorted(looked_up, key=repr) == sorted(signatures, key=repr)


def test_final_pass_rejects_a_signature_outside_the_class_table(monkeypatch):
    g, dom = wheel_graph(9)
    monkeypatch.setattr(coloring, "class_membership", lambda sets: None)
    with pytest.raises(ColoringInternalError, match=r"vertex 0 has a signature outside the class"):
        three_way_coloring(g, dom)


def test_construct_runs_two_domination_passes(monkeypatch):
    # one pass each: the heuristic's post-check and three_way_coloring's check
    # of caller input, each testing G[D] connected; dominating_set returns the
    # default core after one minimum-degree test, with no check of its own
    g = random_min_degree(300, 3, seed=1)
    calls = {"check_domination": 0, "is_connected": 0, "min_degree": 0}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for module in (graphs, domination, coloring):
        for name in ("check_domination", "is_connected"):
            if hasattr(module, name):
                count(module, name)
    count(graphs.Graph, "min_degree")
    three_way_coloring(g, three_way_dominating_set(g))
    assert calls == {"check_domination": 2, "is_connected": 2, "min_degree": 2}


def test_inner_fallback_to_spanning():
    # G[D] has 9 vertices and 18 edges, past the exact solver's reach
    made = chain_example(9, 9)
    dom = [made.labels[x] for x in ("a7", "a8", "a9", "b1", "b2", "b3", "b4", "b5", "b6")]
    col, method = inner_coloring(made.graph, dom, offset=6)
    assert method == "spanning"
    assert col.num_colors == len(dom) - 1


def test_inner_falls_back_to_spanning_past_the_edge_cap():
    # K_6 has 6 vertices, within INNER_EXACT_MAX_VERTICES, but 15 edges, one
    # past the exact solver's default edge cap: its LimitError falls back
    col, method = inner_coloring(complete_graph(6), range(6), 0)
    assert (method, col.num_colors) == ("spanning", 5)


def test_colorings_are_deterministic():
    g = random_min_degree(16, 3, seed=4)
    dom = three_way_dominating_set(g)
    a, _, _ = three_way_coloring(g, dom)
    b, _, _ = three_way_coloring(g, dom)
    assert a.assignment == b.assignment
    sa, _ = three_dom_coloring(complete_graph(5), range(4))
    sb, _ = three_dom_coloring(complete_graph(5), range(4))
    assert sa.assignment == sb.assignment


def test_three_dom_end_to_end_random():
    for seed in range(8):
        g = random_min_degree(9 + 2 * seed, 3, seed=seed)
        dom = dominating_set(g, k_dominating(3))
        col, report = three_dom_coloring(g, dom)
        assert col.num_colors <= report.d + 3
        assert is_3_rainbow(g, col).verdict
