import collections
import dataclasses
import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rainbow3.verify
from rainbow3 import (
    CLASS_TABLE,
    EdgeColoring,
    GraphError,
    LimitError,
    SafetyCertificate,
    VerifyReport,
    build_graph,
    certificate_colors,
    chain_example,
    class_membership,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    edge_key,
    exact_rx3,
    exact_rx3_coloring,
    french_windmill,
    gstar,
    is_3_rainbow,
    path_graph,
    random_min_degree,
    sdiam3,
    spanning_tree_coloring,
    three_way_coloring,
    three_way_dominating_set,
    threshold_example,
    verify_certificate,
)
from conftest import (
    all_class_triples,
    colored_graphs,
    connected_graphs,
    many_colored_graphs,
    oracle_certificate,
    oracle_certificate_colors,
    oracle_exact_rx3_coloring,
    oracle_is_3_rainbow,
    oracle_rainbow_report,
    oracle_tree_levels,
    pickable_bruteforce,
    random_connected,
)


def _coloring(pairs):
    return EdgeColoring.from_dict({(min(u, v), max(u, v)): c for (u, v), c in pairs})


# On three vertices the one triple is the whole graph, so the verdict is
# whether that triple has a rainbow tree.

def test_exists_rainbow_path():
    g = path_graph(3)
    col = _coloring([((0, 1), 1), ((1, 2), 2)])
    assert is_3_rainbow(g, col).verdict


def test_exists_monochromatic_path_fails():
    g = path_graph(3)
    col = _coloring([((0, 1), 1), ((1, 2), 1)])
    assert not is_3_rainbow(g, col).verdict


def test_exists_monochromatic_triangle_fails():
    g = complete_graph(3)
    col = _coloring([((0, 1), 1), ((0, 2), 1), ((1, 2), 1)])
    assert not is_3_rainbow(g, col).verdict


def test_exists_limit_exceeded(monkeypatch):
    # the rainbow 4-path needs more than 10 units of walk searches and joins
    g = path_graph(4)
    col = _coloring([((0, 1), 1), ((1, 2), 2), ((2, 3), 3)])
    monkeypatch.setattr("rainbow3.verify.VERIFY_WORK_BUDGET", 10)
    with pytest.raises(LimitError, match="work budget 10 exceeded"):
        is_3_rainbow(g, col)


def test_default_work_budget_stops_many_colors():
    # K8 with 28 distinct colors is trivially 3-rainbow and fits the budget;
    # K10 with 28 colors, each on one or two edges, needs over 3 times it
    g = complete_graph(8)
    col = EdgeColoring.from_dict({e: i + 1 for i, e in enumerate(g.edges)})
    rep = is_3_rainbow(g, col)
    assert (rep.verdict, rep.witness, rep.triples_checked) == (True, None, 56)
    g = complete_graph(10)
    col = EdgeColoring.from_dict({e: i % 28 + 1 for i, e in enumerate(g.edges)})
    with pytest.raises(LimitError, match="verifier work budget"):
        is_3_rainbow(g, col)


@given(st.one_of(colored_graphs(max_n=9, max_colors=6), many_colored_graphs()))
@settings(max_examples=40, deadline=None)
def test_full_verifier_agrees_with_per_triple_dp(drawn):
    # the witness is the first triple without a rainbow subtree, and its
    # 1-based rank is the number of triples checked
    g, cols = drawn
    col = EdgeColoring.from_dict(cols)
    rep = is_3_rainbow(g, col)
    assert (rep.verdict, rep.witness, rep.triples_checked) == oracle_rainbow_report(g, col)


Trace = collections.namedtuple("Trace", "report sources units joins fronts")


def _search_trace(g, col, verifier=is_3_rainbow):
    """What the verifier did: its report, the sources it searched from, in
    order, the work units it was charged, the number of joins it ran, and the
    medians whose twin classes it built, in order."""
    searches, spent, joins, fronts = [], [0], [0], []  # searches: (source, walks)
    verify = rainbow3.verify
    search, spend, join, twins = (
        verify._single_source_masks, verify._spend, verify._joins, verify._twins
    )

    def counted_search(n, adj_bits, source, work):
        searches.append((source, search(n, adj_bits, source, work)))
        return searches[-1][1]

    def counted_spend(work, units):
        spent[0] += units
        spend(work, units)

    def counted_join(aa, bb, cc, work):
        joins[0] += 1
        return join(aa, bb, cc, work)

    def counted_twins(ends):
        fronts.append(next(m for m, at in searches if at is ends))
        return twins(ends)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_single_source_masks", counted_search)
        mp.setattr(verify, "_spend", counted_spend)
        mp.setattr(verify, "_joins", counted_join)
        mp.setattr(verify, "_twins", counted_twins)
        rep = verifier(g, col)
    return Trace(rep, [m for m, _ in searches], spent[0], joins[0], fronts)


def test_is_3_rainbow_searches_one_untried_median_then_the_terminals():
    g = french_windmill(10).graph
    col, _, _ = three_way_coloring(g, three_way_dominating_set(g))
    trace = _search_trace(g, col)
    assert trace.report.verdict
    assert trace.sources == [0]  # the hub serves every triple
    trace = _search_trace(g, EdgeColoring.from_dict({e: 1 for e in g.edges}))
    # the first triple fails at medians 0 and 1, then searches its third
    # terminal, whose walks rule out every other median without a search
    assert (trace.report.witness, trace.report.triples_checked) == ((0, 1, 2), 1)
    assert trace.sources == [0, 1, 2]


_FAMILIES = {
    "windmill": lambda t: french_windmill(t).graph,
    "threshold": lambda t: threshold_example(t).graph,
    "chain": lambda t: chain_example(4 + t % 3, 4 + t // 3).graph,
}


@functools.lru_cache(maxsize=None)
def _family_plus6(kind, t):
    g = _FAMILIES[kind](t)
    return g, three_way_coloring(g, three_way_dominating_set(g))[0]


def _recolored(kind, t, e, f):
    """The +6 coloring of the family graph with edge e given f's color."""
    g, col = _family_plus6(kind, t)
    return g, {**col.assignment, e: col.assignment[f]}


@st.composite
def recolored_families(draw):
    """The +6 coloring of a windmill, threshold or chain graph with one edge
    given the color of an edge next to it."""
    kind = draw(st.sampled_from(sorted(_FAMILIES)))
    t = draw(st.integers(2, 9))
    g, _ = _family_plus6(kind, t)
    e = draw(st.sampled_from(g.edges))
    f = draw(st.sampled_from([f for f in g.edges if f != e and set(f) & set(e)]))
    return _recolored(kind, t, e, f)


# Skipping known-good third vertices past the next unknown one keeps the
# report but not the median order; here it charges 86 units against 85.
_DRIFT_EXAMPLE = (
    build_graph(8, [(0, 1), (0, 3), (0, 4), (0, 7), (1, 2), (1, 3), (1, 5), (1, 7), (3, 6), (4, 6)]),
    {(0, 1): 2, (0, 3): 2, (0, 4): 1, (0, 7): 1, (1, 2): 1, (1, 3): 1, (1, 5): 1, (1, 7): 1,
     (3, 6): 3, (4, 6): 2},
)


# A row that drops a pair whose class entry leaves one c > b unsettled would
# miss the failing triple (5, 6, 7) here.
_EARLY_DROP_EXAMPLE = (
    build_graph(10, [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 9), (1, 3), (1, 4),
                     (1, 5), (1, 8), (1, 9), (2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (3, 5),
                     (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (5, 8), (6, 7),
                     (6, 9), (7, 9)]),
    {(0, 1): 2, (0, 3): 2, (0, 4): 1, (0, 5): 2, (0, 6): 2, (0, 7): 3, (0, 9): 1, (1, 3): 3,
     (1, 4): 2, (1, 5): 1, (1, 8): 2, (1, 9): 1, (2, 3): 3, (2, 5): 3, (2, 6): 1, (2, 7): 1,
     (2, 8): 3, (3, 5): 2, (3, 7): 3, (3, 8): 1, (4, 5): 1, (4, 6): 3, (4, 7): 1, (4, 8): 2,
     (4, 9): 2, (5, 8): 3, (6, 7): 3, (6, 9): 2, (7, 9): 1},
)


@given(st.one_of(colored_graphs(max_n=10, max_colors=3), recolored_families()))
@example(_DRIFT_EXAMPLE)
@example(_EARLY_DROP_EXAMPLE)
@example(_recolored("threshold", 4, (4, 5), (0, 5)))  # fails at triple 16 of 35
@example(_recolored("chain", 6, (1, 4), (0, 4)))  # fails at the last triple
@settings(max_examples=150, deadline=None)
def test_is_3_rainbow_matches_one_join_per_triple(drawn):
    # skipping joins and searches keeps the report, searches no source twice
    # and moves the medians to the front in the order one join per triple does
    g, cols = drawn
    col = EdgeColoring.from_dict(cols)
    trace = _search_trace(g, col)
    want_fronts = []
    assert trace.report == oracle_is_3_rainbow(g, col, want_fronts)
    assert len(set(trace.sources)) == len(trace.sources) <= g.n
    assert trace.fronts == want_fronts


def test_is_3_rainbow_skips_joins_for_twins():
    g = french_windmill(20).graph
    col, _, _ = three_way_coloring(g, three_way_dominating_set(g))
    trace = _search_trace(g, col)
    assert trace.report.verdict and trace.report.triples_checked == math.comb(g.n, 3)
    assert trace.joins < math.comb(g.n, 2)
    # a path with a color per edge has no twins at any median: from m, every
    # vertex is reached by one walk with its own color set
    g = path_graph(12)
    col = EdgeColoring.from_dict({e: i + 1 for i, e in enumerate(g.edges)})
    trace = _search_trace(g, col)
    want = _search_trace(g, col, oracle_is_3_rainbow)
    assert trace.report == want.report and trace.report.verdict
    assert trace.joins == want.joins


# Fails at (2, 5, 6) after its row drops the settled pair (2, 4) by twin
# class; no one-edge recolor of the windmill's +6, +3 or spanning-tree
# coloring (t <= 7) fails after a dropped pair, so this one was drawn at random.
_FAILS_AFTER_DROPPED_PAIR = (
    build_graph(7, [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5),
                    (1, 6), (2, 4), (2, 5), (3, 5), (3, 6), (4, 5), (4, 6)]),
    {(0, 1): 2, (0, 2): 1, (0, 3): 2, (0, 5): 3, (0, 6): 3, (1, 2): 2, (1, 3): 1, (1, 4): 3,
     (1, 5): 1, (1, 6): 1, (2, 4): 1, (2, 5): 1, (3, 5): 2, (3, 6): 2, (4, 5): 1, (4, 6): 3},
)


def _plus6_case(g):
    return g, three_way_coloring(g, three_way_dominating_set(g))[0]


# (report, sources searched in order, work units, joins) as stepping every pair
# and testing untried medians through the terminals' walks gives them.  Searching
# every tried median charged 21300, 11512, 17902 and 362 units on the last four,
# from sources 0..20, 0..7, 0..8 and 0..6.
@pytest.mark.parametrize("case, want", [
    (lambda: _plus6_case(french_windmill(20).graph),
     (VerifyReport(True, None, 35990, 6), [0], 2100, 36)),
    (lambda: _plus6_case(threshold_example(20).graph),
     (VerifyReport(True, None, 1771, 6), [0, 1, 2, 3, 20], 6100, 36)),
    (lambda: _plus6_case(chain_example(10, 10).graph),
     (VerifyReport(True, None, 1140, 7), [0, 1, 2, 3, 7], 7552, 110)),
    (lambda: _plus6_case(random_min_degree(16, 3, 1)),
     (VerifyReport(True, None, 560, 10), [0, 1, 2, 3, 4, 5, 6, 8, 9, 15], 18942, 613)),
    (lambda: (_FAILS_AFTER_DROPPED_PAIR[0], EdgeColoring.from_dict(_FAILS_AFTER_DROPPED_PAIR[1])),
     (VerifyReport(False, (2, 5, 6), 31, 3), [0, 1, 2, 5, 6], 272, 33)),
], ids=["windmill-20", "threshold-20", "chain-10-10", "random-16", "dropped-pair"])
def test_is_3_rainbow_keeps_its_pinned_trace(case, want):
    g, col = case()
    trace = _search_trace(g, col)
    assert (trace.report, trace.sources, trace.units, trace.joins) == want


def test_is_3_rainbow_builds_twin_classes_only_at_front_medians():
    # the first triple of a monochrome coloring fails at every median, and
    # only the first is ever the front
    g = french_windmill(20).graph
    trace = _search_trace(g, EdgeColoring.from_dict({e: 1 for e in g.edges}))
    assert [len(trace.sources), len(trace.fronts)] == [3, 1]
    # the threshold graph's searched medians mostly never serve a join
    trace = _search_trace(*_plus6_case(threshold_example(40).graph))
    assert [len(trace.sources), len(trace.fronts)] == [5, 2]


@pytest.mark.parametrize(
    "g",
    [threshold_example(200).graph, chain_example(40, 40).graph],
    ids=["threshold-200", "chain-40-40"],
)
def test_is_3_rainbow_searches_few_medians_on_plus6_threshold_and_chain(g):
    # the terminals' walks rule out the medians that never serve; searching
    # every tried median ran 201 and 38 searches here
    trace = _search_trace(*_plus6_case(g))
    assert trace.report.verdict and trace.report.triples_checked == math.comb(g.n, 3)
    assert len(trace.sources) == 5


def test_is_3_rainbow_checks_totality_below_three_vertices():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(GraphError, match="not total"):
        is_3_rainbow(g, EdgeColoring.from_dict({}))
    assert is_3_rainbow(g, EdgeColoring.from_dict({(0, 1): 1})) == VerifyReport(True, None, 0, 1)


def test_is_3_rainbow_names_the_first_uncolored_edge_in_edge_order():
    g = path_graph(5)  # edges (0, 1), (1, 2), (2, 3), (3, 4)
    with pytest.raises(GraphError, match=r"^coloring is not total: \(1, 2\) uncolored$"):
        is_3_rainbow(g, EdgeColoring.from_dict({(3, 4): 1, (0, 1): 2}))


def test_a_none_color_is_a_color_and_not_uncolored():
    # only an absent key is uncolored: a key mapped to None is one more color
    g = path_graph(3)
    c = EdgeColoring({(0, 1): None, (1, 2): None}, 1)
    assert rainbow3.verify._color_bits(g, c) == [[(1, 1)], [(0, 1), (2, 1)], [(1, 1)]]
    assert is_3_rainbow(g, c) == VerifyReport(False, (0, 1, 2), 1, 1)
    with pytest.raises(GraphError, match=r"^coloring is not total: \(1, 2\) uncolored$"):
        is_3_rainbow(g, EdgeColoring({(0, 1): None}, 1))


MIXED_PALETTE = (None, "red", "blue", 0, -1, 2.5, (1, 2), frozenset({3}))


@given(connected_graphs(min_n=3, max_n=6), st.data())
@settings(max_examples=40, deadline=None)
def test_is_3_rainbow_takes_a_mixed_palette(g, data):
    # any hashable value is a color, and colors need not compare with each other
    cols = data.draw(st.lists(st.sampled_from(MIXED_PALETTE), min_size=g.m, max_size=g.m))
    c = EdgeColoring.from_dict(dict(zip(g.edges, cols)))
    rep = is_3_rainbow(g, c)
    assert (rep.verdict, rep.witness, rep.triples_checked) == oracle_rainbow_report(g, c)


def test_is_3_rainbow_spanning_k33():
    g = complete_bipartite(3, 3)
    rep = is_3_rainbow(g, spanning_tree_coloring(g))
    assert rep.verdict and rep.witness is None
    assert rep.triples_checked == 20


def test_is_3_rainbow_monochromatic_k4():
    g = complete_graph(4)
    col = EdgeColoring.from_dict({e: 1 for e in g.edges})
    rep = is_3_rainbow(g, col)
    assert not rep.verdict
    assert rep.witness == (0, 1, 2)


def test_is_3_rainbow_windmill_construction():
    g = french_windmill(3).graph
    col, _, _ = three_way_coloring(g, {0})
    assert is_3_rainbow(g, col).verdict


def test_is_3_rainbow_partial_coloring_rejected():
    g = complete_graph(3)
    col = EdgeColoring.from_dict({(0, 1): 1, (0, 2): 2})
    with pytest.raises(Exception, match="total"):
        is_3_rainbow(g, col)


# ---------------------------------------------------------------------------
# Certificates.

def _windmill_cert(paths, colors):
    return SafetyCertificate(
        vertex=paths[0][0],
        paths=tuple(tuple(p) for p in paths),
        color_sets=tuple(map(frozenset, colors)),
    )


def test_certificate_three_legs():
    g = complete_graph(4)
    col = _coloring([((0, 1), 1), ((0, 2), 2), ((0, 3), 3), ((1, 2), 7), ((1, 3), 8), ((2, 3), 9)])
    cert = _windmill_cert([(0, 1), (0, 2), (0, 3)], [{1}, {2}, {3}])
    assert verify_certificate(g, col, {1, 2, 3}, cert)


@pytest.mark.parametrize(
    "sets",
    [[{1}, {2}, {4}], [{1}, {2, 9}, {3}], [{1}, {2}, set()], [{1}, {2}]],
    ids=["wrong-color", "extra-color", "empty-set", "two-sets"],
)
def test_certificate_wrong_color_set_fails(sets):
    g = complete_graph(4)
    col = _coloring([((0, 1), 1), ((0, 2), 2), ((0, 3), 3), ((1, 2), 7), ((1, 3), 8), ((2, 3), 9)])
    cert = _windmill_cert([(0, 1), (0, 2), (0, 3)], sets)
    assert not verify_certificate(g, col, {1, 2, 3}, cert)


def test_certificate_shared_inner_vertex_fails():
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (0, 4)])
    col = _coloring([((0, 1), 1), ((1, 2), 2), ((1, 3), 3), ((0, 4), 4)])
    cert = _windmill_cert([(0, 4), (0, 1, 2), (0, 1, 3)], [{4}, {1, 2}, {1, 3}])
    assert not verify_certificate(g, col, {2, 3, 4}, cert)


@pytest.mark.parametrize(
    "paths",
    [[(0, 3), (0, 1, 4), (0, 2, 1, 5)], [(0, 3), (0, 1, 2, 0, 4), (0, 5)]],
    ids=["inner-vertex", "start-vertex"],
)
def test_certificate_shared_vertex_on_distinct_edges_fails(paths):
    # every edge has its own color, so only the repeated vertex is wrong
    g = build_graph(6, [(0, 3), (0, 1), (1, 4), (0, 2), (1, 2), (1, 5), (0, 4), (0, 5)])
    col = EdgeColoring.from_dict({e: i for i, e in enumerate(g.edges, start=1)})
    sets = [{col.assignment[edge_key(a, b)] for a, b in zip(p, p[1:])} for p in paths]
    assert not verify_certificate(g, col, {3, 4, 5}, _windmill_cert(paths, sets))


def test_certificate_repeated_color_fails():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    col = _coloring([((0, 1), 1), ((0, 2), 1), ((0, 3), 3)])
    cert = _windmill_cert([(0, 1), (0, 2), (0, 3)], [{1}, {1}, {3}])
    assert not verify_certificate(g, col, {1, 2, 3}, cert)


def test_certificate_inner_vertex_in_dom_fails():
    g = build_graph(4, [(0, 1), (1, 2), (0, 3)])
    col = _coloring([((0, 1), 1), ((1, 2), 2), ((0, 3), 3)])
    cert = _windmill_cert([(0, 3), (0, 1, 2), (0, 1)], [{3}, {1, 2}, {1}])
    # path 0-1-2 passes through D at vertex 1
    assert not verify_certificate(g, col, {1, 2, 3}, cert)


def test_certificate_through_colored_non_edge_fails():
    # the coloring also colors the pair (0, 1), which is not an edge of g, and
    # the second path runs through it; with (0, 1) an edge the same paths pass
    edges = [(0, 3), (1, 4), (0, 2), (2, 4), (3, 4)]
    col = _coloring([((0, 3), 1), ((0, 1), 2), ((1, 4), 3), ((0, 2), 4), ((2, 4), 5), ((3, 4), 6)])
    paths = [(0, 3), (0, 1, 4), (0, 2, 4)]
    cert = _windmill_cert(paths, [{1}, {2, 3}, {4, 5}])
    g = build_graph(5, edges)
    assert certificate_colors(g, col, {3, 4}, 0, paths) is None
    assert oracle_certificate_colors(g, col, {3, 4}, 0, paths) is None
    assert not verify_certificate(g, col, {3, 4}, cert)
    g = build_graph(5, edges + [(0, 1)])
    assert certificate_colors(g, col, {3, 4}, 0, paths) == cert.color_sets
    assert oracle_certificate_colors(g, col, {3, 4}, 0, paths) == cert.color_sets
    assert verify_certificate(g, col, {3, 4}, cert)


def test_certificate_first_path_must_be_single_edge():
    g = build_graph(4, [(0, 1), (1, 2), (0, 3), (0, 2)])
    col = _coloring([((0, 1), 1), ((1, 2), 2), ((0, 3), 3), ((0, 2), 4)])
    cert = _windmill_cert([(0, 1, 2), (0, 2), (0, 3)], [{1, 2}, {4}, {3}])
    assert not verify_certificate(g, col, {2, 3}, cert)


def _path_edges(paths):
    return {edge_key(a, b) for p in paths for a, b in zip(p, p[1:])}


def _shared_vertex_paths(g, cert):
    """The cert's paths with one vertex inserted or replaced by its start or
    one of its inner vertices, over two edges of g the cert does not use:
    a repeated vertex is then the only fault once every edge has a color of
    its own."""
    used = _path_edges(cert.paths)
    reused = {cert.vertex} | {x for p in cert.paths for x in p[1:-1]}
    out = []
    for i, path in enumerate(cert.paths):
        for k in range(1, len(path)):
            for tail in filter(None, (path[k:], path[k + 1:])):
                for x in sorted(reused):
                    new = {edge_key(path[k - 1], x), edge_key(x, tail[0])}
                    if new <= g.edge_set and not new & used:
                        paths = list(cert.paths)
                        paths[i] = path[:k] + (x,) + tail
                        out.append((cert, tuple(paths)))
    return out


@functools.lru_cache(maxsize=None)
def _plus6(n, delta, seed):
    g = random_min_degree(n, delta, seed)
    dom = three_way_dominating_set(g)
    coloring, certs, _ = three_way_coloring(g, dom)
    shared = [m for cert in certs for m in _shared_vertex_paths(g, cert)]
    return g, dom.vertices, coloring, certs, shared


def _fresh_colors_on(coloring, paths):
    """The coloring with every edge along ``paths`` given a color of its own
    that nothing else uses; an edge the paths repeat keeps one color."""
    assignment = dict(coloring.assignment)
    fresh = max(assignment.values())
    for e in _path_edges(paths):
        if e in assignment:
            fresh += 1
            assignment[e] = fresh
    return EdgeColoring.from_dict(assignment)


def _sets_along(coloring, paths):
    return tuple(
        frozenset(coloring.assignment.get(edge_key(a, b)) for a, b in zip(p, p[1:]))
        for p in paths
    )


def _shared_vertex_case(n, delta, seed):
    g, dom, coloring, _, shared = _plus6(n, delta, seed)
    cert, paths = shared[0]
    coloring = _fresh_colors_on(coloring, paths)
    return g, dom, coloring, SafetyCertificate(cert.vertex, paths, _sets_along(coloring, paths))


MUTATIONS = ("none", "replace", "insert", "delete", "swap", "tail", "set", "vertex", "share")


@st.composite
def _mutated_certificates(draw):
    """A certificate of a +6 construction with one mutation, checked against
    the construction's coloring or one that gives the mutated paths fresh
    colors (always, for "share").  The recorded sets follow the mutated
    paths except under "set", which flips one color of one set."""
    g, dom, coloring, certs, shared = _plus6(
        draw(st.integers(12, 24)), draw(st.sampled_from(range(3, 11))), draw(st.integers(0, 20))
    )
    kind = draw(st.sampled_from(MUTATIONS))
    cert = draw(st.sampled_from(certs))
    paths = cert.paths
    if kind == "share" and shared:
        cert, paths = draw(st.sampled_from(shared))
    v, sets = cert.vertex, list(cert.color_sets)
    paths = [list(p) for p in paths]
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    path = paths[i]
    if kind in ("replace", "insert"):
        k = draw(st.integers(1, len(path) - (kind == "replace")))
        tail = path[k + 1:] if kind == "replace" else path[k:]
        fits = [
            x for x in range(g.n)
            if g.has_edge(path[k - 1], x) and (not tail or g.has_edge(x, tail[0]))
        ]
        paths[i] = path[:k] + [draw(st.sampled_from(fits or range(g.n)))] + tail
    elif kind == "delete":
        del path[draw(st.integers(0, len(path) - 1))]
    elif kind == "swap":
        paths[i], paths[j], sets[i], sets[j] = paths[j], paths[i], sets[j], sets[i]
    elif kind == "tail":
        src = paths[j]
        paths[i] = path[: draw(st.integers(1, len(path)))] + src[draw(st.integers(1, len(src) - 1)):]
    elif kind == "vertex":
        v = draw(st.sampled_from(sorted({x for p in paths for x in p})))
    paths = tuple(map(tuple, paths))
    if kind == "share" or draw(st.booleans()):
        coloring = _fresh_colors_on(coloring, paths)
    if kind == "set":
        sets[i] = sets[i] ^ {draw(st.sampled_from(sorted(set(coloring.assignment.values()))))}
    else:
        sets = _sets_along(coloring, paths)
    return g, dom, coloring, SafetyCertificate(v, paths, tuple(sets))


def test_certificate_check_matches_separate_tests():
    # the one distinctness test against the three separate ones it replaced;
    # the pinned case repeats an inner vertex over unused edges, a fault the
    # construction's own six colors almost never leave as the only one
    verdicts = set()

    @given(_mutated_certificates())
    @example(_shared_vertex_case(16, 8, 0))
    @settings(max_examples=400, deadline=None)
    def agree(drawn):
        g, dom, coloring, cert = drawn
        got = verify_certificate(g, coloring, dom, cert)
        assert got == oracle_certificate(g, coloring, dom, cert)
        verdicts.add(got)

    agree()
    assert verdicts == {True, False}


def test_certificate_colors_are_the_path_colors_in_order():
    g, dom, coloring, certs, _ = _plus6(40, 3, 1)
    for cert in certs:
        along = tuple(
            frozenset(coloring.assignment[edge_key(a, b)] for a, b in zip(p, p[1:]))
            for p in cert.paths
        )
        assert certificate_colors(g, coloring, dom, cert.vertex, cert.paths) == along
        assert along == cert.color_sets
    cert = next(cert for cert in certs if len(cert.paths[1]) > 2)
    v, (leg, second, third) = cert.vertex, cert.paths
    assert certificate_colors(g, coloring, dom, v, (leg, third, second)) is not None
    assert certificate_colors(g, coloring, dom, v, (second, leg, third)) is None
    assert certificate_colors(g, coloring, dom, v, (leg, second)) is None
    assert certificate_colors(g, coloring, dom, v, (leg, second, third[:-1])) is None


def _outcome(f, *args):
    """f's value on args, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


@given(_mutated_certificates())
@settings(max_examples=300, deadline=None)
def test_certificate_colors_matches_the_oracle_on_mutants(drawn):
    g, dom, coloring, cert = drawn
    args = (g, coloring, dom, cert.vertex, cert.paths)
    assert _outcome(certificate_colors, *args) == _outcome(oracle_certificate_colors, *args)


def _uncolored(coloring, paths):
    """The coloring without the color of the third path's last edge."""
    assignment = dict(coloring.assignment)
    del assignment[edge_key(*paths[2][-2:])]
    return EdgeColoring.from_dict(assignment)


def _repeated(coloring, paths, i):
    """The coloring with path i's last edge given its first edge's color."""
    path = paths[i]
    assignment = dict(coloring.assignment)
    assignment[edge_key(*path[-2:])] = assignment[edge_key(*path[:2])]
    return EdgeColoring.from_dict(assignment)


MALFORMED = {
    "lists": lambda g, c, v, p: (c, v, [list(q) for q in p]),
    "list-of-tuples": lambda g, c, v, p: (c, v, list(p)),
    "two-paths": lambda g, c, v, p: (c, v, p[:2]),
    "four-paths": lambda g, c, v, p: (c, v, (*p, p[2])),
    "one-vertex-leg": lambda g, c, v, p: (c, v, ((v,), p[1], p[2])),
    "one-vertex-second": lambda g, c, v, p: (c, v, (p[0], (v,), p[2])),
    "one-vertex-third": lambda g, c, v, p: (c, v, (p[0], p[1], (v,))),
    "v=-1": lambda g, c, v, p: (c, -1, p),
    "v=n": lambda g, c, v, p: (c, g.n, p),
    "v=True": lambda g, c, v, p: (c, True, p),
    "uncolored-edge": lambda g, c, v, p: (_uncolored(c, p), v, p),
    "repeated-color-second": lambda g, c, v, p: (_repeated(c, p, 1), v, p),
    "repeated-color-third": lambda g, c, v, p: (_repeated(c, p, 2), v, p),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_certificate_colors_matches_the_oracle_on_malformed_input(kind):
    g, dom, coloring, certs, _ = _plus6(24, 3, 2)
    for cert in certs:
        c, v, paths = MALFORMED[kind](g, coloring, cert.vertex, cert.paths)
        args = (g, c, dom, v, paths)
        assert _outcome(certificate_colors, *args) == _outcome(oracle_certificate_colors, *args)


RECORDED = {
    "tuple-of-frozensets": (lambda sets: sets, True),
    "list-of-frozensets": (lambda sets: list(sets), True),
    "lists": (lambda sets: tuple(sorted(s) for s in sets), True),
    "sets": (lambda sets: tuple(set(s) for s in sets), True),
    "superset": (lambda sets: (sets[0], sets[1] | {99}, sets[2]), False),
    "subset": (lambda sets: (sets[0], sets[1], frozenset(sorted(sets[2])[1:])), False),
    "two-sets": (lambda sets: sets[:2], False),
    "four-sets": (lambda sets: (*sets, sets[2]), False),
}


@pytest.mark.parametrize("kind", sorted(RECORDED))
def test_verify_certificate_matches_the_oracle_on_recorded_sets(kind):
    # a tuple equal to the walked sets passes at once; any other form takes
    # the per-set size-and-containment loop and keeps its verdict
    g, dom, coloring, certs, _ = _plus6(24, 3, 2)
    form, verdict = RECORDED[kind]
    for cert in certs:
        recorded = SafetyCertificate(cert.vertex, cert.paths, form(cert.color_sets))
        assert verify_certificate(g, coloring, dom, recorded) is verdict
        assert oracle_certificate(g, coloring, dom, recorded) is verdict


def _t_sets(*parts):
    return tuple(frozenset(p) for p in parts)


def test_safety_certificate_is_frozen_and_slotted():
    cert = SafetyCertificate(0, ((0, 1), (0, 2), (0, 3)), _t_sets([1], [2], [3]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.vertex = 4
    assert not hasattr(cert, "__dict__")


def test_safety_certificate_is_equal_and_hashable_by_value():
    paths = ((0, 1), (0, 2), (0, 3))
    a = SafetyCertificate(0, paths, _t_sets([1], [2], [3]))
    b = SafetyCertificate(0, tuple(tuple(list(p)) for p in paths), _t_sets([1], [2], [3]))
    assert a == b and a is not b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != SafetyCertificate(1, paths, a.color_sets)


def test_safety_certificate_replace_keeps_the_other_fields():
    cert = SafetyCertificate(0, ((0, 1), (0, 2), (0, 3)), _t_sets([1], [2], [3]))
    moved = dataclasses.replace(cert, paths=((0, 1), (0, 2), (0, 4)))
    assert (moved.vertex, moved.color_sets) == (cert.vertex, cert.color_sets)
    assert moved.paths[2] == (0, 4) and cert.paths[2] == (0, 3)


# ---------------------------------------------------------------------------
# Pickability.

COUNTEREXAMPLE = (
    ({1}, {2, 4}, {5, 6}),
    ({1}, {2, 5}, {4, 6}),
    ({1}, {2, 6}, {4, 5}),
)


def test_pickable_counterexample_false():
    assert not pickable_bruteforce(*COUNTEREXAMPLE)


def test_pickable_distinct_first_colors():
    cu = ({1}, {2, 4}, {3, 5})
    cv = ({2}, {3, 6}, {1, 4})
    cw = ({3}, {1, 5}, {2, 6})
    assert pickable_bruteforce(cu, cv, cw)


def test_pickable_three_copies():
    t = ({1}, {2, 4}, {3, 5})
    assert pickable_bruteforce(t, t, t)


def test_pickable_degenerate_two_single_edges():
    t = ({1}, {2}, {3, 6})
    assert pickable_bruteforce(t, t, t)


def test_class_table_is_closed_under_picking():
    # any three outside vertices whose certificates have table signatures can
    # choose one path each with pairwise disjoint colors (DECISIONS.md)
    multisets = list(itertools.combinations_with_replacement(all_class_triples(), 3))
    assert len(multisets) == 12_341
    assert [m for m in multisets if not pickable_bruteforce(*m)] == []


# ---------------------------------------------------------------------------
# Class tables.

def test_class_table_sizes():
    sizes = [len(CLASS_TABLE[i]) for i in range(7)]
    assert sizes == [7, 8, 9, 8, 3, 2, 4]
    assert len(all_class_triples()) == 41


def test_class_first_sets_are_their_labels():
    for label in range(1, 7):
        for triple in CLASS_TABLE[label]:
            assert triple[0] == frozenset({label})


def test_class_membership_examples():
    assert class_membership(({1}, {2, 4}, {3, 5})) == 1
    assert class_membership(({4}, {3, 6}, {1, 2, 5})) == 4
    assert class_membership(({1}, {2, 3}, {4, 5})) is None


def test_class_membership_unordered_tail():
    assert class_membership(({1}, {3, 5}, {2, 4})) == 1
    # two-singleton entries match with the singletons swapped
    assert class_membership(({2}, {1}, {3, 6})) == 0


def test_class_membership_needs_three_sets():
    assert class_membership(({1}, {2})) is None
    # as a set of sets this is {1}, {2}, {3}, which is in class 0
    assert class_membership(({1}, {2}, {3}, {3})) is None


def test_class_membership_rejects_nonsingleton_first():
    assert class_membership(({2, 4}, {1}, {3, 5})) is None


# ---------------------------------------------------------------------------
# Exact solver.

def test_exact_k3():
    assert exact_rx3(complete_graph(3)) == 2


def test_exact_complete_graphs_two_or_three():
    assert exact_rx3(complete_graph(4)) in (2, 3)
    assert exact_rx3(complete_graph(5)) in (2, 3)


def test_exact_k33():
    assert exact_rx3(complete_bipartite(3, 3)) == 3


def test_exact_path4():
    g = path_graph(4)
    # no 2-coloring of the three edges works for the endpoint triple
    for cols in itertools.product((1, 2), repeat=3):
        col = EdgeColoring.from_dict(dict(zip(g.edges, cols)))
        assert not is_3_rainbow(g, col).verdict
    assert exact_rx3(g) == 3


def test_exact_witness_verifies():
    g = cycle_graph(5)
    k, colmap = exact_rx3_coloring(g)
    col = EdgeColoring.from_dict(colmap)
    assert col.num_colors == k
    assert is_3_rainbow(g, col).verdict
    assert k >= sdiam3(g)
    assert 2 <= k <= g.n - 1


def test_exact_respects_limits():
    with pytest.raises(LimitError, match="edges"):
        exact_rx3(french_windmill(3).graph)
    with pytest.raises(LimitError, match="kmax"):
        exact_rx3(complete_graph(4), kmax=9)


def test_exact_needs_three_vertices():
    with pytest.raises(GraphError, match="needs n >= 3, got n=2"):
        exact_rx3_coloring(build_graph(2, [(0, 1)]))


def test_exact_rejects_a_disconnected_graph():
    # the levels never serve a triple across components, so without this
    # check the search would report "exceeds kmax"
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    for kmax in (2, 8):
        with pytest.raises(GraphError, match="^graph must be connected$"):
            exact_rx3(g, kmax=kmax)


def test_exact_exceeds_kmax_returns_none():
    assert exact_rx3(path_graph(5), kmax=2) is None


def test_exact_node_budget_exceeded(monkeypatch):
    monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", 3)
    with pytest.raises(LimitError, match="node budget 3 exceeded"):
        exact_rx3(cycle_graph(5))


def test_exact_rejects_malformed_limits():
    with pytest.raises(LimitError, match="kmax must be in 1..8, got 0"):
        exact_rx3_coloring(path_graph(3), kmax=0)
    with pytest.raises(LimitError, match="kmax must be in 1..8, got -3"):
        exact_rx3_coloring(path_graph(3), kmax=-3)
    with pytest.raises(LimitError, match="max_edges must be >= 0, got -1"):
        exact_rx3_coloring(path_graph(3), max_edges=-1)
    assert exact_rx3_coloring(path_graph(3), kmax=1) is None


# Search nodes the all-subtrees solver needed at its busiest color count:
# (graph, limits, nodes).  Storing only minimal trees must not change them.
EXACT_NODES = {
    "path 9": (path_graph(9), {}, 9),
    "windmill 2": (french_windmill(2).graph, {}, 109),
    "windmill 3 kmax 3": (french_windmill(3).graph, {"kmax": 3, "max_edges": 18}, 28),
    "windmill 3 kmax 4": (french_windmill(3).graph, {"kmax": 4, "max_edges": 18}, 198),
    "K5": (complete_graph(5), {}, 39),
    "C7": (cycle_graph(7), {}, 8),
}


@pytest.mark.parametrize("case", list(EXACT_NODES))
def test_exact_node_count_pinned(case, monkeypatch):
    g, limits, nodes = EXACT_NODES[case]
    kmax = limits.get("kmax", rainbow3.verify.EXACT_KMAX)
    monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", nodes)
    assert exact_rx3_coloring(g, **limits) == oracle_exact_rx3_coloring(g, kmax=kmax)
    monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", nodes - 1)
    for solve in (lambda: exact_rx3_coloring(g, **limits),
                  lambda: oracle_exact_rx3_coloring(g, kmax=kmax)):
        with pytest.raises(LimitError, match=f"node budget {nodes - 1} exceeded"):
            solve()


def _least_budget(solve, monkeypatch):
    """Least EXACT_NODE_BUDGET under which ``solve()`` returns, by bisection."""
    lo, hi = 0, 1  # solve raises at lo and returns at hi
    while True:
        monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", hi)
        try:
            solve()
            break
        except LimitError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", mid)
        try:
            solve()
            hi = mid
        except LimitError:
            lo = mid
    return hi


SHUFFLE_CASES = {
    "windmill 2": (french_windmill(2).graph, {}),
    "windmill 3 kmax 4": (french_windmill(3).graph, {"kmax": 4, "max_edges": 18}),
    "K5": (complete_graph(5), {}),
    "C7": (cycle_graph(7), {}),
    **{f"random {seed}": (random_connected(seed), {}) for seed in (10, 17, 26, 30)},
}


@pytest.mark.parametrize("case", list(SHUFFLE_CASES))
def test_exact_kill_list_order_changes_nothing(case, monkeypatch):
    # Each edge's at-risk triple list is sorted fail-first for speed only: a
    # dead triple must be found wherever it sits in the list.
    g, limits = SHUFFLE_CASES[case]
    solve = lambda: exact_rx3_coloring(g, **limits)
    nodes = _least_budget(solve, monkeypatch)
    monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", nodes)
    expected = solve()
    tree_levels = rainbow3.verify._tree_levels

    def shuffled(seed):
        rng = random.Random(seed)

        def levels(graph):
            for count, through, at_risk in tree_levels(graph):
                for risk in at_risk or ():
                    rng.shuffle(risk)
                yield count, through, at_risk
        return levels

    for seed in range(3):
        monkeypatch.setattr("rainbow3.verify._tree_levels", shuffled(seed))
        monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", nodes)
        assert solve() == expected
        monkeypatch.setattr("rainbow3.verify._tree_levels", shuffled(seed))
        monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", nodes - 1)
        with pytest.raises(LimitError, match=f"node budget {nodes - 1} exceeded"):
            solve()


LEVEL_GRAPHS = {
    **{f"P{n}": path_graph(n) for n in range(3, 10)},
    **{f"C{n}": cycle_graph(n) for n in range(4, 8)},
    "K4": complete_graph(4),
    "K5 minus an edge": build_graph(5, [e for e in complete_graph(5).edges if e != (0, 1)]),
    "windmill 2": french_windmill(2).graph,
    "windmill 3": french_windmill(3).graph,
    "gstar 3 0": gstar(3, 0).graph,
}


def _levels_match_oracle(g):
    # the one-pass build yields the same tree count, bitsets and at-risk
    # lists as the bytearray build at every k up to rx3, the last the solver reads
    levels = rainbow3.verify._tree_levels(g)
    kmax = exact_rx3(g, max_edges=g.m)
    for k, new, old in zip(range(2, kmax + 1), levels, oracle_tree_levels(g)):
        assert new == old, k


@pytest.mark.parametrize("name", list(LEVEL_GRAPHS))
def test_tree_levels_match_the_two_pass_build(name):
    _levels_match_oracle(LEVEL_GRAPHS[name])


@given(connected_graphs(min_n=3, max_n=7))
@settings(max_examples=100, deadline=None)
def test_tree_levels_match_the_two_pass_build_on_random_graphs(g):
    _levels_match_oracle(g)


def _levels_serve_every_triple_from_sdiam3(g):
    # a triple has a tree of at most k edges iff its Steiner distance is at
    # most k, so the at-risk lists are None exactly below sdiam3
    s = sdiam3(g)
    levels = rainbow3.verify._tree_levels(g)
    for k, (_, _, at_risk) in zip(range(2, s + 2), levels):
        assert (at_risk is None) == (k < s), k


@pytest.mark.parametrize("name", list(LEVEL_GRAPHS))
def test_tree_levels_serve_every_triple_from_sdiam3(name):
    _levels_serve_every_triple_from_sdiam3(LEVEL_GRAPHS[name])


@given(connected_graphs(min_n=3, max_n=7))
@settings(max_examples=100, deadline=None)
def test_tree_levels_serve_every_triple_from_sdiam3_on_random_graphs(g):
    _levels_serve_every_triple_from_sdiam3(g)


def test_tree_levels_yield_lists_the_next_level_leaves_alone():
    levels = rainbow3.verify._tree_levels(french_windmill(2).graph)
    _, on_edge, _ = next(levels)
    kept = list(on_edge)
    next(levels)
    assert on_edge == kept


# gstar(3, 0), the smallest block chain (n = 10, m = 19): rx3 = 5 = sdiam3,
# settled after this many search nodes, with this witness in edge order.
GSTAR_3_0_NODES = 11962
GSTAR_3_0_WITNESS = [1, 1, 1, 2, 3, 4, 5, 1, 1, 1, 2, 2, 3, 3, 4, 4, 3, 4, 4]


def test_exact_gstar_3_0_pinned(monkeypatch):
    g = gstar(3, 0).graph
    monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", GSTAR_3_0_NODES)
    k, witness = exact_rx3_coloring(g, max_edges=g.m)
    assert k == 5 == sdiam3(g)
    assert [col for _, col in sorted(witness.items())] == GSTAR_3_0_WITNESS
    assert is_3_rainbow(g, EdgeColoring.from_dict(witness)).verdict
    monkeypatch.setattr("rainbow3.verify.EXACT_NODE_BUDGET", GSTAR_3_0_NODES - 1)
    with pytest.raises(LimitError, match=f"node budget {GSTAR_3_0_NODES - 1} exceeded"):
        exact_rx3_coloring(g, max_edges=g.m)


# french_windmill(4) (n = 13, m = 24): rx3 = 4, with a witness whose colors in
# edge order, joined by commas, have this sha256.
WINDMILL_4_WITNESS_SHA256 = "3ce0a4a817962753783727a4d4eae1e9b7668763adf6ad12bc97fe5b169f763f"


def test_exact_windmill_4_pinned():
    g = french_windmill(4).graph
    k, witness = exact_rx3_coloring(g, max_edges=g.m)
    text = ",".join(str(witness[e]) for e in g.edges)
    assert k == 4
    assert hashlib.sha256(text.encode()).hexdigest() == WINDMILL_4_WITNESS_SHA256
    assert is_3_rainbow(g, EdgeColoring.from_dict(witness)).verdict


def test_work_budget_exceeded(monkeypatch):
    g = cycle_graph(5)
    col = spanning_tree_coloring(g)
    monkeypatch.setattr("rainbow3.verify.VERIFY_WORK_BUDGET", 2)
    with pytest.raises(LimitError, match="verifier work budget 2 exceeded"):
        is_3_rainbow(g, col)


@pytest.mark.parametrize(
    "g",
    [random_min_degree(40, 3, 1), random_min_degree(60, 3, 1), gstar(3, 8).graph],
    ids=["random-40", "random-60", "gstar-3-8"],
)
def test_is_3_rainbow_verifies_plus6_past_desk_size(g):
    # 20, 24 and 32 colors, verified exhaustively within the default work budget
    col, _, _ = three_way_coloring(g, three_way_dominating_set(g))
    rep = is_3_rainbow(g, col)
    assert col.num_colors >= 20
    assert rep.verdict and rep.triples_checked == math.comb(g.n, 3)


@given(many_colored_graphs())
@settings(max_examples=30, deadline=None)
def test_is_3_rainbow_matches_oracle_with_many_colors(drawn):
    # up to one distinct color per edge, so more than 14 colors can occur
    g, cols = drawn
    col = EdgeColoring.from_dict(cols)
    assert is_3_rainbow(g, col).verdict == oracle_rainbow_report(g, col)[0]


@given(connected_graphs(min_n=3, max_n=5).filter(lambda g: g.m <= 6))
@settings(max_examples=100, deadline=None)
def test_exact_is_minimal_by_oracle(g):
    k, witness = exact_rx3_coloring(g)
    assert oracle_rainbow_report(g, EdgeColoring.from_dict(witness))[0]
    for cols in itertools.product(range(1, k), repeat=g.m):
        coloring = EdgeColoring.from_dict(dict(zip(g.edges, cols)))
        assert not oracle_rainbow_report(g, coloring)[0]


@given(connected_graphs(min_n=3, max_n=8).filter(lambda g: g.m <= 14))
@example(build_graph(8, [(a, b) for a, b in itertools.combinations(range(8), 2)
                         if (a ^ b).bit_count() == 1]))  # the cube
@example(build_graph(8, [(i, 4 + j) for i in range(4) for j in range(4)
                         if i != j or i > 1]))  # K4,4 less two edges: m = 14
@example(build_graph(8, [(i, (i + 1) % 7) for i in range(7)]
                     + [(i, 7) for i in range(7)]))  # the wheel on 8 vertices
@settings(max_examples=60, deadline=None)
def test_exact_matches_all_subtrees_oracle(g):
    # same minimum and the same witness: minimal trees settle every triple
    # at the same search nodes as all its subtrees
    assert exact_rx3_coloring(g) == oracle_exact_rx3_coloring(g)


@given(connected_graphs(min_n=3, max_n=7).filter(lambda g: g.m <= 10))
@settings(max_examples=100, deadline=None)
def test_exact_node_budget_matches_all_subtrees_oracle(g):
    # the same least passing node budget: the search visits the same nodes
    with pytest.MonkeyPatch.context() as patch:
        assert _least_budget(lambda: exact_rx3_coloring(g), patch) == _least_budget(
            lambda: oracle_exact_rx3_coloring(g), patch)


@pytest.mark.parametrize("kmax", [3, 4])
def test_exact_matches_all_subtrees_oracle_on_windmill_3(kmax):
    g = french_windmill(3).graph
    found = exact_rx3_coloring(g, kmax=kmax, max_edges=18)
    assert found == oracle_exact_rx3_coloring(g, kmax=kmax)
    assert (found is None) == (kmax == 3)


@given(colored_graphs(max_n=6, max_colors=3))
@settings(max_examples=15, deadline=None)
def test_exact_lower_bounded_by_sdiam(drawn):
    g, _ = drawn
    if g.m > 14:
        return
    k = exact_rx3(g, kmax=8)
    if k is not None:
        assert k >= max(2, sdiam3(g))
        assert k <= g.n - 1
