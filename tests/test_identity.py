"""Pinned outputs of the three functions whose speed is tuned.

`random_min_degree`, `cds_heuristic` and `sdiam3_with_triple` each replaced
a plain scan with a pruned or incremental one.  Their outputs are part of
the reproducible record (seeded corpora, CLI JSON, benchmark digests), so
the digests below were taken from the plain scans and must not move: the
same edge list byte for byte, the same dominating set, the same Steiner
value and the same lexicographically first extremal triple.
"""
import hashlib
import itertools

import pytest
from hypothesis import given, settings

from rainbow3 import (
    cds_heuristic,
    french_windmill,
    gstar,
    random_min_degree,
    sdiam3_with_triple,
    write_edge_list,
)
from conftest import connected_graphs, oracle_steiner3


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _graph(spec):
    kind, *params = spec
    if kind == "random":
        return random_min_degree(*params)
    if kind == "windmill":
        return french_windmill(*params).graph
    return gstar(3, *params).graph


def random_digest(n, delta, seed):
    return _sha(write_edge_list(random_min_degree(n, delta, seed)))


def structure_digest(spec):
    """Sorted cds_heuristic D plus (sdiam3, argmax triple); sdiam3 is left
    out on n >= 500, where the plain scan it is pinned against is too slow."""
    g = _graph(spec)
    dom = sorted(cds_heuristic(g).vertices)
    steiner = sdiam3_with_triple(g) if g.n < 500 else None
    return _sha(repr((dom, steiner)))


RANDOM_DIGESTS = {
    (4, 3, 0): "9c3528d98663acb8787c1f08381b6591c46b657d1c4c0061ae09a1e908653f00",
    (6, 5, 0): "3855aca69894c94c7c28e83bbef2440f4b3b44f44fe8567de447989fceb3317e",
    (10, 1, 1): "2c6b27d92b9b8eac10c7ccd952086180891efbfb1315f0b06ad0c40e15bebea1",
    (10, 2, 2): "aabe8acfbd5a9a9ecad2f5602b958f04edf65f16ef25e68eb7dcc3ef300f7518",
    (50, 3, 1): "f9a2052f690e7b095bbb46a5d24501cbea90884162d51b5a697f731a129f32b0",
    (50, 5, 2): "bc1a7ad2fcde45216ef50cbdaec3cd79e093bbab269fa0b0370b85178b263ba0",
    (300, 3, 3): "adc94a87ee4190766cafd5160b8612a3b3c62022ff42c473043b57838e8990eb",
    (300, 7, 1): "9084632b5c5c2cdbaea80200082b0d44da45aadf899fb841c871851100ea6ad2",
    (2000, 3, 1): "3117bcbe410a6931cdf07a9b1c445b8446e9789b9b8a1de57577c16c34f6c622",
    (2000, 4, 2): "7d72756211a6d3d26159fea15ab3a6652869d23c104d9958fa7bfa12173bc044",
    (5000, 3, 5): "8264f1cfc94b5339eba7f9c0251b3040a1eddc3867b9bc07de6865f981862fa0",
}

STRUCTURE_DIGESTS = {
    ("random", 20, 3, 1): "c6c07b049d286f0d846cd907c497d93c5402429ead17cfe1f3ee25bf4164287a",
    ("random", 80, 3, 1): "d118933a52aa7b225ed002cd7736d4b3ee544ef457524d146d831e23e29de31d",
    ("random", 160, 3, 1): "734459ad1ab85069b734dfbc008aa7026059b54631710e5076449628eb139d8b",
    ("random", 500, 3, 1): "6d4b12be5fc10f43e66a522986feaaed01a003ab5d501397db673925fe5be1df",
    ("random", 2000, 3, 1): "4c0c0e581a8fd8d5e974bda557337729eefdab3fae44a908b2720988d463447d",
    ("random", 20, 1, 2): "2481707e0164bbf00bf5891f90ff51f21d1ec86a464d2e4bb1c742fc71b53533",
    ("random", 80, 1, 2): "114526ae921854b7aa07a0b01a3fa34751249ef4f4d7d71a754297d6bda5f584",
    ("random", 160, 1, 2): "b952560a57401e397d09d3ed28b8c7ead2a57f33d4db9562e257a6a6218729b4",
    ("random", 80, 2, 3): "9a91c30836fd02831bb2b07176b0addc650b4d0eabe41a82e99531a43bd839a9",
    ("windmill", 10): "c6fdf04c4c9c92031b8e9f60069da8f86b117ca6836349cf5e7232294e1d719a",
    ("windmill", 30): "c6fdf04c4c9c92031b8e9f60069da8f86b117ca6836349cf5e7232294e1d719a",
    ("gstar", 1): "a1826e2f99360466116be265637ea4ee02d59b7322f103fe2b587320fbc49e0d",
    ("gstar", 4): "696b9e1ce303e5b88728619dcbbe13253dea0c6ed162f64b247bd568a3eefd26",
    ("gstar", 8): "c4fd42e5386ce3152ce5c9294b110c016f7b907dca7bc2feb16bbbce20789180",
}


@pytest.mark.parametrize("params", sorted(RANDOM_DIGESTS), ids=str)
def test_random_min_degree_edge_list_pinned(params):
    assert random_digest(*params) == RANDOM_DIGESTS[params]


@pytest.mark.parametrize("spec", list(STRUCTURE_DIGESTS), ids=str)
def test_dominating_set_and_sdiam3_pinned(spec):
    assert structure_digest(spec) == STRUCTURE_DIGESTS[spec]


@given(connected_graphs(min_n=3, max_n=8))
@settings(max_examples=100, deadline=None)
def test_sdiam3_triple_is_first_oracle_argmax(g):
    best, first = -1, None
    for triple in itertools.combinations(range(g.n), 3):
        val = oracle_steiner3(g, triple)
        if val > best:
            best, first = val, triple
    assert sdiam3_with_triple(g) == (best, first)
