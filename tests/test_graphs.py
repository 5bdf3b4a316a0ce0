import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbow3 import (
    CONNECTED,
    GraphError,
    bfs_tree,
    build_graph,
    check_domination,
    complete_graph,
    components_minus,
    cycle_graph,
    diameter,
    french_windmill,
    gstar,
    induced_subgraph,
    is_connected,
    path_graph,
    random_min_degree,
    read_edge_list,
    sdiam3,
    sdiam3_with_triple,
    star_graph,
    steiner_distance3,
    three_way_dominating_set,
    write_edge_list,
)
import rainbow3.graphs as graphs
from rainbow3.graphs import bfs_distances
from conftest import (
    connected_graphs,
    graphs_with_subsets,
    oracle_components_minus,
    oracle_connected,
    oracle_sdiam3_scan,
    oracle_steiner3,
)


def test_build_path_degrees():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_self_loop_rejected():
    with pytest.raises(GraphError, match=r"\(0, 0\)"):
        build_graph(2, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(GraphError, match=r"\(1, 3\)"):
        build_graph(3, [(1, 3)])


def test_k4_min_degree():
    g = build_graph(4, itertools.combinations(range(4), 2))
    assert g.min_degree() == 3
    assert g.m == 6


def test_duplicates_collapsed():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


@given(st.permutations([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]))
def test_build_graph_canonical_under_permutation(perm):
    a = build_graph(4, perm)
    b = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    assert a == b


def test_is_connected_rejects_a_member_that_is_not_a_vertex():
    # -1 would alias vertex 3 in a mark array and make {3} look connected
    g = path_graph(4)
    assert is_connected(g, [3, 2]) and not is_connected(g, [3, 1])
    for bad, shown in ((-1, "-1"), (4, "4"), (1.5, r"1\.5")):
        with pytest.raises(GraphError, match=rf"^vertex {shown} is not a vertex of g \(n=4\)$"):
            is_connected(g, [3, bad])


def test_is_connected_whole_graph():
    assert is_connected(build_graph(0, [])) and is_connected(build_graph(1, []))
    assert is_connected(path_graph(5))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(4, [(0, 1), (2, 3)]), iter([2, 3, 3]))


@given(graphs_with_subsets(max_n=10))
@settings(max_examples=120)
def test_is_connected_matches_plain_set_logic(drawn):
    g, dset, _ = drawn
    assert is_connected(g, dset) == oracle_connected(dset, g.edges)
    assert is_connected(g, sorted(dset, reverse=True)) == oracle_connected(dset, g.edges)


@pytest.mark.parametrize("bad", [1.5, -1, 6, "x", True, [1]])
def test_vertex_set_checks_reject_a_member_that_is_not_a_vertex(bad):
    # one message from every function that takes a vertex set; a bool is not a
    # vertex even where it equals one, and an unhashable member is named too
    g = cycle_graph(6)
    message = rf"^vertex {re.escape(repr(bad))} is not a vertex of g \(n=6\)$"
    with pytest.raises(GraphError, match=message):
        components_minus(g, [0, bad])
    with pytest.raises(GraphError, match=message):
        bfs_tree(g, [0, 1, bad], 0)
    with pytest.raises(GraphError, match=message):
        induced_subgraph(g, [0, 1, bad])
    with pytest.raises(GraphError, match=message):
        is_connected(g, [bad, 2])
    with pytest.raises(GraphError, match=message):
        is_connected(g, iter([0, 1, bad]))
    assert not check_domination(g, [0, bad], CONNECTED)


@given(graphs_with_subsets(min_n=2, max_n=30))
@settings(max_examples=80, deadline=None)
def test_components_minus_matches_per_vertex_bfs(drawn):
    g, dset, _ = drawn
    assert components_minus(g, dset) == oracle_components_minus(g, dset)


@pytest.mark.parametrize("seed", range(4))
def test_components_minus_matches_per_vertex_bfs_at_n300(seed):
    g = random_min_degree(300, 3, seed)
    rng = random.Random(seed)
    for dom in (three_way_dominating_set(g).vertices, rng.sample(range(300), 100), []):
        assert components_minus(g, dom) == oracle_components_minus(g, dom)


def test_components_windmill():
    g = french_windmill(3).graph
    comps = components_minus(g, {0})
    assert comps == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]


def test_components_full_dominating_set():
    g = complete_graph(4)
    assert components_minus(g, range(4)) == []


def test_components_c6():
    g = cycle_graph(6)
    assert components_minus(g, {0, 3}) == [(1, 2), (4, 5)]


def test_bfs_star_all_leaves_height_one():
    g = star_graph(5)
    t = bfs_tree(g, range(5), 0)
    assert all(t.height[v] == 1 for v in range(1, 5))
    assert t.first_level == (1, 2, 3, 4)


def test_bfs_path_heights():
    g = path_graph(4)
    t = bfs_tree(g, range(4), 0)
    assert [t.height[v] for v in range(4)] == [0, 1, 2, 3]


def test_bfs_c4_heights_and_cross_edge():
    g = cycle_graph(4)
    t = bfs_tree(g, range(4), 0)
    assert [t.height[v] for v in range(4)] == [0, 1, 2, 1]
    tree_keys = {(min(v, t.parent[v]), max(v, t.parent[v])) for v in range(1, 4)}
    non_tree = [e for e in g.edges if e not in tree_keys]
    assert len(non_tree) == 1
    u, v = non_tree[0]
    assert {t.height[u], t.height[v]} == {1, 2}


def test_bfs_rejects_a_disconnected_vertex_set():
    with pytest.raises(GraphError, match="graph must be connected"):
        bfs_tree(cycle_graph(6), {0, 1, 3}, 0)


def test_bfs_root_outside_component():
    g = cycle_graph(6)
    with pytest.raises(GraphError, match="root"):
        bfs_tree(g, {1, 2}, 0)


def test_bfs_subtree_types():
    g = star_graph(4)
    t = bfs_tree(g, range(4), 0)
    assert t.first_level == (1, 2, 3)
    assert t.pi == {1: 1, 2: 2, 3: 3}
    assert [v for v in range(4) if t.pi.get(v) == t.first_level[-1]] == [3]  # type II


@given(connected_graphs(min_n=2, max_n=9))
@settings(max_examples=60)
def test_bfs_edges_never_skip_a_level(g):
    t = bfs_tree(g, range(g.n), 0)
    for u, v in g.edges:
        assert abs(t.height[u] - t.height[v]) <= 1
    # parent/height consistency
    for v in range(1, g.n):
        assert t.height[v] == t.height[t.parent[v]] + 1
    assert t.height[0] == 0


def test_apsp_k4():
    dist = graphs._distance_rows(graphs._ball_table(complete_graph(4)))
    assert all(dist[u][v] == 1 for u in range(4) for v in range(4) if u != v)
    assert diameter(complete_graph(4)) == 1


def test_apsp_path5():
    assert diameter(path_graph(5)) == 4


def test_apsp_gstar_diam_8():
    g = gstar(3, 1).graph
    assert g.n == 14
    assert diameter(g) == 8


def test_apsp_disconnected_names_vertices():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="0 and 2"):
        diameter(g)


def test_diameter_of_one_vertex_and_of_none():
    assert diameter(build_graph(1, [])) == 0
    with pytest.raises(GraphError, match="n=0"):
        diameter(build_graph(0, []))


@given(connected_graphs(min_n=2, max_n=9))
@example(random_min_degree(70, 1, 71))
@example(random_min_degree(130, 3, 133))
@example(random_min_degree(300, 2, 302))
@settings(max_examples=60)
def test_apsp_rows_are_bfs_rows(g):
    dist = graphs._distance_rows(graphs._ball_table(g))
    assert dist == tuple(tuple(bfs_distances(g, s)) for s in range(g.n))
    assert diameter(g) == max(max(row) for row in dist)


def test_steiner_path():
    g = path_graph(3)
    assert steiner_distance3(g, {0, 1, 2}) == 2


def test_steiner_star_leaves():
    g = star_graph(4)
    assert steiner_distance3(g, {1, 2, 3}) == 3


def test_steiner_c5():
    g = cycle_graph(5)
    assert oracle_steiner3(g, {0, 2, 4}) == 3
    assert steiner_distance3(g, {0, 2, 4}) == 3


def test_steiner_rejects_disconnected_terminals():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(GraphError, match=r"terminals \[0, 1, 3\] are not connected"):
        steiner_distance3(g, {0, 1, 3})


def test_steiner_needs_three_distinct():
    with pytest.raises(GraphError):
        steiner_distance3(path_graph(4), {0, 1})
    with pytest.raises(GraphError, match="need exactly 3 distinct vertices"):
        steiner_distance3(path_graph(4), [0, 1, 1])


def test_steiner_rejects_a_terminal_that_is_not_a_vertex():
    for bad, shown in ((1.5, r"1\.5"), (4, "4"), (-1, "-1")):
        with pytest.raises(GraphError, match=rf"^vertex {shown} is not a vertex of g \(n=4\)$"):
            steiner_distance3(path_graph(4), [0, 1, bad])


@given(connected_graphs(min_n=3, max_n=7))
@settings(max_examples=40)
def test_steiner_matches_subset_enumeration(g):
    for s in itertools.combinations(range(g.n), 3):
        assert steiner_distance3(g, s) == oracle_steiner3(g, s)


def test_sdiam_complete():
    assert sdiam3(complete_graph(4)) == 2
    assert sdiam3(complete_graph(6)) == 2


def test_sdiam_path4():
    assert sdiam3(path_graph(4)) == 3


def test_sdiam_gstar_at_least_diam():
    g = gstar(3, 1).graph
    assert sdiam3(g) >= diameter(g) == 8


def test_sdiam_extremal_triple_is_consistent():
    g = path_graph(5)
    val, triple = sdiam3_with_triple(g)
    assert val == 4
    assert steiner_distance3(g, triple) == val


def test_sdiam_needs_three_vertices():
    with pytest.raises(GraphError):
        sdiam3(path_graph(2))


def test_sdiam3_disconnected_names_an_unreachable_pair():
    with pytest.raises(GraphError, match="no path between 0 and 3"):
        sdiam3_with_triple(build_graph(5, [(0, 1), (1, 2), (3, 4)]))


@pytest.mark.parametrize("family", ["random", "windmill", "gstar"])
def test_sdiam3_matches_plain_scan(family):
    """Value and first argmax equal the scan without the ball masks."""
    if family == "random":
        cases = [(n, d) for n in range(6, 151, 8) for d in range(1, 6)]
        graphs = [random_min_degree(n, d, n + d) for n, d in cases]
    elif family == "windmill":
        cases = list(range(2, 41))
        graphs = [french_windmill(t).graph for t in cases]
    else:
        cases = [(d, m) for d in (3, 4, 5) for m in range(17)]
        graphs = [gstar(d, m).graph for d, m in cases]
    for case, g in zip(cases, graphs):
        assert sdiam3_with_triple(g) == oracle_sdiam3_scan(g), case


@pytest.mark.parametrize("n", [86, 87, 300])
def test_sdiam3_path_at_lane_boundaries(n):
    """n = 86 just fits 1-byte median lanes (3 * 85 = 255), n = 87 takes
    2-byte lanes, and n = 300 has rings past r = 255, which are peeled."""
    assert sdiam3_with_triple(path_graph(n)) == (n - 1, (0, 1, n - 1))


def test_sdiam3_median_sums_past_a_byte_take_2_byte_lanes():
    # legs of 1, 1 and 85 on vertex 0: ecc(87) = 86, so 3 * 86 = 258, and
    # the median sum of (1, 2, 3) at 87 is 86 + 86 + 84 = 256, past a byte
    g = build_graph(88, [(0, 1), (0, 2), (0, 3)] + [(i, i + 1) for i in range(3, 87)])
    assert sdiam3_with_triple(g) == (87, (1, 2, 87))


def test_sdiam3_broom_peels_a_wide_ring_past_255():
    # a path 0..259 with ten leaves on 259: seen from 0, the leaves are a
    # ring at r = 260, wide enough for the one-step write but past a byte
    g = build_graph(270, [(i, i + 1) for i in range(259)] + [(259, v) for v in range(260, 270)])
    balls = graphs._ball_table(g)
    assert (balls[0][260] ^ balls[0][259]).bit_count() == 10 > graphs.RING_PEEL_MAX
    assert graphs._distance_rows(balls) == tuple(tuple(bfs_distances(g, s)) for s in range(g.n))
    value, triple = sdiam3_with_triple(g)
    assert (value, triple) == (261, (0, 260, 261))
    assert steiner_distance3(g, triple) == value


@given(connected_graphs(min_n=3, max_n=9))
@settings(max_examples=60)
def test_diameter_at_most_sdiam3(g):
    assert diameter(g) <= sdiam3(g)


def test_edge_list_roundtrip():
    g = french_windmill(2).graph
    text = write_edge_list(g)
    assert read_edge_list(text) == g


def test_edge_list_comments_ignored():
    text = "# a graph\n3 2  # header\n0 1\n1 2\n"
    g = read_edge_list(text)
    assert g.edges == ((0, 1), (1, 2))


def test_edge_list_bad_header():
    with pytest.raises(GraphError):
        read_edge_list("x y\n")
    with pytest.raises(GraphError, match="endpoint tokens"):
        read_edge_list("3 2\n0 1\n")


def test_edge_list_bad_edge_token():
    with pytest.raises(GraphError, match=r"^bad edge token: invalid literal for int\(\)"):
        read_edge_list("3 2\n0 1\n1 x\n")
