import pytest

from rainbow3 import (
    GraphError,
    chain_example,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diameter,
    french_windmill,
    gstar,
    path_graph,
    random_min_degree,
    star_graph,
    threshold_example,
)
from rainbow3.cli import main
from conftest import threshold_from_weights


def test_standard_families():
    assert complete_graph(4).m == 6
    assert complete_bipartite(3, 3).m == 9
    assert cycle_graph(6).m == 6
    assert all(cycle_graph(6).degree(v) == 2 for v in range(6))
    assert path_graph(5).m == 4
    assert star_graph(5).degree(0) == 4


def test_gstar_small():
    made = gstar(3, 1)
    assert made.graph.n == 14
    assert made.graph.min_degree() == 3
    assert diameter(made.graph) == 8


def test_gstar_m0():
    made = gstar(3, 0)
    assert made.graph.n == 10
    assert made.graph.min_degree() == 3


def test_gstar_degree_audit_delta4():
    made = gstar(4, 2)
    g = made.graph
    assert g.n == 22
    assert g.min_degree() == 4
    # the deleted in-block edge keeps vertex 1 of each block at delta
    assert not g.has_edge(made.labels["x0_1"], made.labels["x0_2"])


def test_gstar_size_formula():
    for delta in (3, 4, 5):
        for m in range(4):
            made = gstar(delta, m)
            assert made.graph.n == m * (delta + 1) + 2 * (delta + 2)
            assert made.graph.min_degree() == delta


def test_gstar_rejects_small_delta():
    with pytest.raises(GraphError):
        gstar(2, 1)


@pytest.mark.parametrize("make, message", [
    (lambda: cycle_graph(2), "cycle needs n >= 3, got 2"),
    (lambda: gstar(3, -1), "gstar needs m >= 0, got -1"),
    (lambda: threshold_example(0), "threshold example needs t >= 1, got 0"),
    (lambda: french_windmill(0), "windmill needs t >= 1, got 0"),
], ids=["cycle-2", "gstar-negative-m", "threshold-0", "windmill-0"])
def test_generators_reject_bad_arguments(make, message):
    with pytest.raises(GraphError, match=message):
        make()


def test_threshold_formulas():
    made = threshold_example(5)
    g = made.graph
    assert g.n == 8 and g.m == 18
    assert all(g.degree(made.labels[f"x{i}"]) == 3 for i in range(1, 6))
    assert g.min_degree() == 3


def test_threshold_large_scale():
    made = threshold_example(2 * 4**3 + 1)
    assert made.graph.n == 2 * 4**3 + 4


def test_threshold_reproduced_by_weights():
    made = threshold_example(6)
    weights = [0.0] * 6 + [1.0, 1.0, 1.0]
    assert threshold_from_weights(weights, 1.0) == made.graph


def test_threshold_from_weights_basic():
    g = threshold_from_weights([1, 1, 1, 0, 0], 1)
    assert g.m == 9  # triangle joined to both light vertices
    assert threshold_from_weights([1, 1], 5).m == 0


def test_chain_sizes_and_degrees():
    made = chain_example(6, 10)
    g = made.graph
    assert g.n == 16
    assert g.min_degree() == 3
    assert g.degree(made.labels["a1"]) == 3
    assert g.degree(made.labels["a6"]) == 10


def test_chain_nested_neighborhoods():
    made = chain_example(5, 7)
    g = made.graph
    hoods = [set(g.adj[made.labels[f"a{i}"]]) for i in range(1, 6)]
    for small, big in zip(hoods, hoods[1:]):
        assert small <= big


def test_chain_large_scale():
    made = chain_example(4, 2 * 5**3 + 4)
    assert made.graph.n == 4 + 2 * 5**3 + 4


def test_windmill_formulas():
    made = french_windmill(3)
    assert made.graph.n == 10 and made.graph.m == 18
    assert made.graph.degree(made.labels["v0"]) == 9
    assert made.graph.min_degree() == 3


def test_windmill_diameter_two():
    assert diameter(french_windmill(2).graph) == 2


def test_windmill_blocks_are_k4():
    made = french_windmill(2)
    g = made.graph
    for i in (1, 2):
        block = [made.labels["v0"]] + [made.labels[f"{x}{i}"] for x in "uvw"]
        for a in block:
            for b in block:
                if a != b:
                    assert g.has_edge(a, b)


def test_windmill_large_scale_generates():
    made = french_windmill(2 * 5**6 + 1)
    assert made.graph.n == 3 * (2 * 5**6 + 1) + 1
    assert made.graph.m == 6 * (2 * 5**6 + 1)


def test_random_min_degree_deterministic():
    a = random_min_degree(10, 3, seed=7)
    b = random_min_degree(10, 3, seed=7)
    assert a.edges == b.edges
    assert a.min_degree() >= 3


def test_random_min_degree_k4_forced():
    assert random_min_degree(4, 3, seed=1) == complete_graph(4)


def test_random_min_degree_delta5():
    g = random_min_degree(30, 5, seed=42)
    assert g.min_degree() >= 5
    assert g.n == 30


def test_random_min_degree_infeasible():
    with pytest.raises(GraphError):
        random_min_degree(3, 3, seed=0)


def test_random_min_degree_rejects_negative_delta(capsys):
    with pytest.raises(GraphError, match="random graph needs delta >= 0, got -1"):
        random_min_degree(10, -1, seed=0)
    assert main(["gen", "random", "--n", "10", "--delta", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("rainbow3: ") and out.err.count("\n") == 1
