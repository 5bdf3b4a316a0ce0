import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbow3 import (
    CONNECTED,
    DominatingSet,
    DominationError,
    DominationKind,
    GraphError,
    LimitError,
    build_graph,
    cds_heuristic,
    check_domination,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    dominating_set,
    french_windmill,
    gstar,
    k_dominating,
    k_way,
    min_connected_dominating_set,
    min_connected_k_dominating_set,
    min_dominating_set,
    path_graph,
    random_min_degree,
    star_graph,
    three_way_dominating_set,
    threshold_example,
)
from rainbow3 import bounds, domination
from rainbow3.coloring import inner_coloring
from conftest import (
    graphs_with_subsets,
    connected_graphs,
    oracle_cds_heuristic,
    oracle_dominates,
    oracle_grown_set,
    oracle_min_dominating,
)


def test_check_k4_single_vertex_connected():
    assert check_domination(complete_graph(4), {0}, CONNECTED)


def test_check_c6_disconnected_inside():
    g = cycle_graph(6)
    assert not check_domination(g, {0, 3}, CONNECTED)
    assert check_domination(g, {0, 1, 2, 3}, CONNECTED)


def test_check_windmill_hub_three_way():
    g = french_windmill(3).graph
    assert check_domination(g, {0}, k_way(3))
    assert not check_domination(g, {0}, k_dominating(3))


def test_check_rejects_out_of_range():
    assert not check_domination(complete_graph(3), {5}, CONNECTED)


@given(graphs_with_subsets())
@settings(max_examples=80)
def test_k_dominating_implies_k_way(drawn):
    g, dset, k = drawn
    if check_domination(g, dset, k_dominating(k)):
        assert check_domination(g, dset, k_way(k))


@given(graphs_with_subsets())
@settings(max_examples=120)
def test_check_domination_matches_plain_set_logic(drawn):
    g, dset, k = drawn
    for kind in (CONNECTED, k_way(k), k_dominating(k)):
        want = oracle_dominates(g, dset, kind.k_dominating, kind.k_way)
        assert check_domination(g, dset, kind) == want


def test_min_cds_complete():
    assert min_connected_dominating_set(complete_graph(5)).vertices == {0}


def test_min_cds_path5():
    assert min_connected_dominating_set(path_graph(5)).vertices == {1, 2, 3}


def test_min_cds_c6():
    assert min_connected_dominating_set(cycle_graph(6)).size == 4


def test_min_cds_limit():
    g = random_min_degree(30, 3, seed=1)
    with pytest.raises(LimitError, match="heuristic"):
        min_connected_dominating_set(g)


@given(connected_graphs(min_n=2, max_n=8))
@settings(max_examples=40)
def test_min_cds_matches_enumeration_oracle(g):
    ours = min_connected_dominating_set(g)
    assert ours.vertices == frozenset(oracle_min_dominating(g))
    assert check_domination(g, ours.vertices, CONNECTED)


def test_min_cds_oracle_up_to_twelve_vertices():
    for n, seed in [(10, 0), (11, 1), (12, 2), (12, 3), (11, 4), (12, 5)]:
        g = random_min_degree(n, 3, seed=seed)
        ours = min_connected_dominating_set(g)
        assert ours.vertices == frozenset(oracle_min_dominating(g))


def test_heuristic_star():
    assert cds_heuristic(star_graph(6)).vertices == {0}


def test_heuristic_single_vertex():
    assert cds_heuristic(build_graph(1, [])) == DominatingSet(frozenset({0}), "heuristic")


def test_heuristic_k4():
    assert cds_heuristic(complete_graph(4)).size == 1


def test_heuristic_valid_on_random_graph():
    g = random_min_degree(30, 3, seed=7)
    dom = cds_heuristic(g)
    assert dom.provenance == "heuristic"
    assert check_domination(g, dom.vertices, CONNECTED)


def test_heuristic_rejects_disconnected_graphs():
    # the growth stops with an empty heap before it spans the graph
    two_paths = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(GraphError, match="graph must be connected"):
        cds_heuristic(two_paths)
    isolated = build_graph(5, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError, match="graph must be connected"):
        cds_heuristic(isolated)
    with pytest.raises(GraphError, match="graph must be connected"):
        cds_heuristic(build_graph(2, []))


def test_heuristic_on_the_empty_graph_says_what_exact_says():
    empty = build_graph(0, [])
    with pytest.raises(DominationError, match="no connected dominating set exists"):
        min_connected_dominating_set(empty)
    with pytest.raises(DominationError, match="no connected dominating set exists"):
        cds_heuristic(empty)


@given(connected_graphs(min_n=2, max_n=8))
@settings(max_examples=40)
def test_heuristic_never_beats_exact(g):
    assert cds_heuristic(g).size >= min_connected_dominating_set(g).size


@given(st.integers(5, 300), st.integers(1, 6), st.integers(0, 2**31 - 1))
@example(300, 3, 0)
@example(300, 3, 1)
@example(300, 3, 2)
@example(300, 3, 3)
@settings(max_examples=80, deadline=None)
def test_heuristic_matches_eager_push_oracle(n, delta, seed):
    # one heap entry per tree vertex, pushed back when popped stale, makes
    # the same picks as an entry on every count decrement (DECISIONS.md entry 6)
    g = random_min_degree(n, min(delta, n - 1), seed)
    assert cds_heuristic(g).vertices == oracle_cds_heuristic(g)


@given(connected_graphs(min_n=2, max_n=30))
@settings(max_examples=80, deadline=None)
def test_heuristic_matches_the_greedy_before_inlining(g):
    assert cds_heuristic(g).vertices == oracle_cds_heuristic(g)


PETERSEN = build_graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


@pytest.mark.parametrize("g, internal", [
    (cycle_graph(9), set(range(7))),
    (complete_bipartite(3, 3), {0, 3}),
    (PETERSEN, {0, 1, 2, 6}),
], ids=["cycle-9", "K3,3", "petersen"])
def test_heuristic_breaks_every_count_tie_by_id(g, internal):
    # regular graphs: every pick ties on its count, so the integer heap key
    # decides by vertex id alone, like the tuple key (DECISIONS.md entry 6)
    assert cds_heuristic(g).vertices == internal == oracle_cds_heuristic(g)


def test_three_way_windmill_is_hub():
    g = french_windmill(3).graph
    dom = three_way_dominating_set(g)
    assert dom.vertices == {0}
    assert dom.provenance == "exact"


def test_three_way_high_degree_graph_equals_cds():
    g = random_min_degree(12, 3, seed=3)
    dom = three_way_dominating_set(g)
    assert dom.size == min_connected_dominating_set(g).size


def test_three_way_path3_takes_everything():
    assert three_way_dominating_set(path_graph(3)).vertices == {0, 1, 2}


def test_three_way_exact_label_means_minimum():
    for n, delta, seed in itertools.product(range(4, 12), range(1, 4), range(15)):
        g = random_min_degree(n, delta, seed)
        dom = three_way_dominating_set(g)
        if dom.provenance == "exact":
            assert dom.size == min_dominating_set(g, k_way(3)).size, (n, delta, seed)


@pytest.mark.parametrize("n", [9, 14, 15, 24, 25, 40])
def test_three_way_routes_agree(n, monkeypatch):
    """`dominating_set(g, k_way(3))`, `three_way_dominating_set` and the
    route-c set of `bounds_report` are one set, on both sides of each limit."""
    g = random_min_degree(n, 2, seed=n)
    route_sets = []

    def recorded(g, dom, offset):
        route_sets.append(dom)
        return inner_coloring(g, dom, offset)

    monkeypatch.setattr(bounds, "inner_coloring", recorded)
    report = bounds.bounds_report(g)
    dom = dominating_set(g, k_way(3))
    assert dom == three_way_dominating_set(g)
    assert (route_sets[2], report.bound_c["provenance"]) == (dom.vertices, dom.provenance)


@given(connected_graphs(min_n=3, max_n=9))
@settings(max_examples=40)
def test_three_way_output_checks(g):
    dom = three_way_dominating_set(g)
    assert check_domination(g, dom.vertices, k_way(3))


def test_min_k_dominating_k4():
    dom = min_connected_k_dominating_set(complete_graph(4), 3)
    assert dom.size == 3


def test_min_k_dominating_k33():
    g = complete_bipartite(3, 3)
    dom = min_connected_k_dominating_set(g, 3)
    assert dom.size == 4
    assert dom.vertices == frozenset(oracle_min_dominating(g, k=3))


def test_min_k_dominating_threshold_picks_the_ys():
    made = threshold_example(5)
    dom = min_connected_k_dominating_set(made.graph, 3)
    ys = {made.labels["y1"], made.labels["y2"], made.labels["y3"]}
    assert dom.vertices == ys


@given(connected_graphs(min_n=3, max_n=7))
@settings(max_examples=25)
def test_min_k_dominating_matches_oracle(g):
    ours = min_connected_k_dominating_set(g, 2)
    assert ours.vertices == frozenset(oracle_min_dominating(g, k=2))


ENUMERATED_KINDS = [CONNECTED, k_dominating(2), k_dominating(3), k_way(3), DominationKind(2, 3)]


# the last-level completion's forced rule (DECISIONS.md entry 14): every
# vertex forced, so the one a set leaves out is its completion; the leaves
# forced and the centre not; no vertex forced, with gamma_c = n - 2
@example(path_graph(7), k_way(3))
@example(star_graph(6), k_way(2))
@example(cycle_graph(11), CONNECTED)
@given(connected_graphs(min_n=2, max_n=10), st.sampled_from(ENUMERATED_KINDS))
@settings(max_examples=100, deadline=None)
def test_min_dominating_set_is_first_oracle_subset(g, kind):
    ours = min_dominating_set(g, kind)
    assert ours.vertices == frozenset(oracle_min_dominating(g, kind.k_dominating, kind.k_way))


@pytest.mark.parametrize("n, checks", [(12, 0), (30, 1)])
def test_connected_request_is_the_core_unchanged(n, checks, monkeypatch):
    # no growth scan and no second check: the exact core needs none, and the
    # heuristic runs its own post-check
    g = random_min_degree(n, 3, seed=n)
    calls = []
    real = domination.check_domination

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(domination, "check_domination", counted)
    core = dominating_set(g, CONNECTED)
    assert len(calls) == checks
    want = min_connected_dominating_set(g) if checks == 0 else cds_heuristic(g)
    assert core == want


@pytest.mark.parametrize("n, builder", [(20, "min_connected_dominating_set"), (30, "cds_heuristic")])
def test_a_core_that_qualifies_is_returned_itself(n, builder, monkeypatch):
    # minimum degree 3, so the default core is a k_way(3) set unchecked and a
    # given one passes its one check; a set that needs growth is heuristic
    g = random_min_degree(n, 3, seed=n)
    built = []
    real = getattr(domination, builder)

    def recorded(g):
        built.append(real(g))
        return built[-1]

    monkeypatch.setattr(domination, builder, recorded)
    assert dominating_set(g, k_way(3)) is built[0]
    given_core = DominatingSet(frozenset(built[0].vertices), "exact")
    assert dominating_set(g, k_way(3), given_core) is given_core
    grown = dominating_set(g, k_dominating(3), given_core)
    assert grown.provenance == "heuristic" and grown.vertices > given_core.vertices
    assert dominating_set(path_graph(5), k_way(3), DominatingSet(frozenset({2}), "exact")) == (
        DominatingSet(frozenset(range(5)), "heuristic"))


GROWN_KINDS = [CONNECTED, k_way(2), k_way(3), k_dominating(2), k_dominating(3), DominationKind(2, 3)]


@st.composite
def graphs_with_cores(draw):
    """A connected graph on 2..20 vertices (its attachment tree leaves
    vertices of degree 1 and 2), a kind, and a connected core grown from a
    random vertex by random boundary picks: dominating or not.  A
    k-dominating kind is drawn only above ROUTE_EXACT_LIMIT, where the core
    is grown rather than ignored."""
    g = draw(connected_graphs(min_n=2, max_n=20))
    core = {draw(st.integers(0, g.n - 1))}
    for pick in draw(st.lists(st.integers(0, g.n - 1), max_size=g.n)):
        frontier = sorted({w for v in core for w in g.adj[v]} - core)
        if not frontier:
            break
        core.add(frontier[pick % len(frontier)])
    kinds = GROWN_KINDS if g.n > domination.ROUTE_EXACT_LIMIT else GROWN_KINDS[:3]
    provenance = draw(st.sampled_from(["exact", "heuristic"]))
    return g, draw(st.sampled_from(kinds)), DominatingSet(frozenset(core), provenance)


# check_domination's branches: k_dominating 1 with the minimum degree below
# or at least k_way, k_dominating 3 with the minimum degree below or at least 3
@example((path_graph(5), k_way(3), DominatingSet(frozenset({2}), "exact")))
@example((complete_graph(5), k_way(3), DominatingSet(frozenset({0}), "exact")))
@example((cycle_graph(8), CONNECTED, DominatingSet(frozenset({0, 1}), "exact")))
@example((random_min_degree(16, 2, 1), k_dominating(3), DominatingSet(frozenset({0}), "heuristic")))
@example((random_min_degree(16, 3, 1), k_dominating(3), cds_heuristic(random_min_degree(16, 3, 1))))
# growth from a non-dominating core that ends disconnected
@example((build_graph(4, [(0, 1), (1, 3), (2, 3)]), CONNECTED, DominatingSet(frozenset({0}), "exact")))
@given(graphs_with_cores())
@settings(max_examples=150, deadline=None)
def test_dominating_set_grows_a_core_like_the_old_loop(drawn):
    g, kind, core = drawn
    want = oracle_grown_set(g, kind, core.vertices)
    if not oracle_dominates(g, want, kind.k_dominating, kind.k_way):
        with pytest.raises(AssertionError, match="growth failed"):
            dominating_set(g, kind, core)
        return
    provenance = core.provenance if want == core.vertices else "heuristic"
    assert dominating_set(g, kind, core) == DominatingSet(frozenset(want), provenance)


def test_gamma_c_of_long_low_degree_graphs():
    cases = [
        (path_graph(24), 22),
        (cycle_graph(24), 22),
        (gstar(3, 3).graph, 13),
        (gstar(4, 2).graph, 10),
    ]
    for g, gamma in cases:
        core = dominating_set(g, CONNECTED)
        assert (core.size, core.provenance) == (gamma, "exact"), g.n
