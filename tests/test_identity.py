"""Pinned outputs of the functions whose speed or structure is tuned.

`random_min_degree`, `cds_heuristic` and `sdiam3_with_triple` each replaced
a plain scan with a pruned or incremental one.  Their outputs are part of
the reproducible record (seeded corpora, CLI JSON, benchmark digests), so
the digests below were taken from the plain scans and must not move: the
same edge list byte for byte, the same dominating set, the same Steiner
value and the same lexicographically first extremal triple.

`dominating_set` builds every D behind `bounds_report`,
`three_way_dominating_set` and `rainbow3 color --dom auto`.  Its sets are
pinned the same way, on graphs that reach every route: exact enumeration of
a k-dominating kind (n <= ROUTE_EXACT_LIMIT, pinned at 8 and 14), growth
from an exact connected core (n <= CDS_EXACT_LIMIT, pinned at 14 and 24) and
growth from the heuristic core (n > 24).
The +6 scheme, `rainbow3 color --method theorem3 --certs`, is pinned on the
same graphs plus one n=2000 graph: the coloring file and the certificates.

`min_dominating_set` grows connected sets level by level instead of scanning
`itertools.combinations`; its tie-break is pinned, from the scan, on long
low-degree graphs, where the two searches differ most.

`exact_rx3_coloring` witnesses color G[D] in the `color` and `bounds`
outputs, so the minimum color count and the witness coloring are pinned on
named graphs (the windmills behind the tightness claims, the star K1,7 that
is G[D] of `bound_b` on the windmill t=7) and on seeded random graphs.

`is_3_rainbow` skips joins it can prove redundant, so its report (verdict,
first failing triple, triples checked) is pinned on +6 and +3 constructions,
on monochrome colorings, which fail at the first triple, and on
constructions with one edge recolored, most of which fail late in the scan.
"""
import hashlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings

from rainbow3 import (
    CONNECTED,
    DominationKind,
    EdgeColoring,
    bounds_report,
    cds_heuristic,
    chain_example,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    exact_rx3_coloring,
    french_windmill,
    gstar,
    is_3_rainbow,
    k_dominating,
    k_way,
    min_connected_k_dominating_set,
    min_dominating_set,
    path_graph,
    random_min_degree,
    sdiam3_with_triple,
    star_graph,
    three_dom_coloring,
    three_way_coloring,
    three_way_dominating_set,
    threshold_example,
    write_edge_list,
)
from rainbow3.cli import main
from conftest import connected_graphs, oracle_steiner3, random_connected


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _graph(spec):
    """("random", n, delta, seed), ("windmill", t), ("path", n), ("cycle", n),
    ("chain", k, t), ("threshold", t), or ("gstar", m) / ("gstar", m, delta) with
    delta 3 by default."""
    kind, *params = spec
    if kind == "random":
        return random_min_degree(*params)
    if kind == "windmill":
        return french_windmill(*params).graph
    if kind == "path":
        return path_graph(*params)
    if kind == "cycle":
        return cycle_graph(*params)
    if kind == "chain":
        return chain_example(*params).graph
    if kind == "threshold":
        return threshold_example(*params).graph
    m, delta = (*params, 3)[:2]
    return gstar(delta, m).graph


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


def test_sdiam3_pinned_at_n500():
    """`structure_digest` leaves n >= 500 out; this value is the plain scan's."""
    assert sdiam3_with_triple(random_min_degree(500, 3, 1)) == (13, (3, 81, 146))


@given(connected_graphs(min_n=3, max_n=8))
@settings(max_examples=100, deadline=None)
def test_sdiam3_triple_is_first_oracle_argmax(g):
    best, first = -1, None
    for triple in itertools.combinations(range(g.n), 3):
        val = oracle_steiner3(g, triple)
        if val > best:
            best, first = val, triple
    assert sdiam3_with_triple(g) == (best, first)


def _at_limit(name, limit, build):
    """``build()`` with the domination limit ``name`` set to ``limit``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f"rainbow3.domination.{name}", limit)
        return build()


def bounds_digest(spec):
    """`bounds_report` JSON at ROUTE_EXACT_LIMIT 8 and at the default 14."""
    g = _graph(spec)
    reports = [_at_limit("ROUTE_EXACT_LIMIT", limit, lambda: bounds_report(g).to_json_dict())
               for limit in (8, 14)]
    return _sha(json.dumps(reports, sort_keys=True))


def three_way_digest(spec):
    """Sorted set and provenance of `three_way_dominating_set` at
    CDS_EXACT_LIMIT 14 and at the default 24."""
    g = _graph(spec)
    sets = [_at_limit("CDS_EXACT_LIMIT", limit, lambda: three_way_dominating_set(g))
            for limit in (14, 24)]
    return _sha(repr([(d.sorted(), d.provenance) for d in sets]))


def theorem4_digest(spec, capsys, monkeypatch):
    """Standard output of `rainbow3 color --method theorem4` (automatic D)."""
    monkeypatch.setattr("sys.stdin", io.StringIO(write_edge_list(_graph(spec))))
    assert main(["color", "--method", "theorem4"]) == 0
    return _sha(capsys.readouterr().out)


BUILDER_SPECS = [
    ("random", 9, 1, 0),
    ("random", 12, 1, 1),
    ("random", 12, 2, 1),
    ("random", 14, 3, 0),
    ("random", 16, 1, 1),
    ("random", 16, 2, 1),
    ("random", 20, 3, 0),
    ("random", 24, 3, 1),
    ("random", 25, 3, 0),
    ("random", 30, 1, 0),
    ("random", 30, 2, 1),
    ("random", 60, 3, 0),
    ("windmill", 3),
    ("windmill", 10),
    ("gstar", 1),
    ("gstar", 4),
]

BOUNDS_DIGESTS = {
    ("random", 9, 1, 0): "5ac169f21747c57a77cce66a24e770084726f331c10b5546d1c63dc034a29a89",
    ("random", 12, 1, 1): "27579e56c411fe87c3796c33438e14543d2656327fe6e52c07b8c1c63dfef48f",
    ("random", 12, 2, 1): "8ae33d5c77092caf9bc9abcad4373d934fd947c3e7f9ce461c6fd35cba87be4b",
    ("random", 14, 3, 0): "6553eaa19df2f522128e19fceb27a437048959760a38b43068787f436a41207c",
    ("random", 16, 1, 1): "6401e94c2c2a2658b869f7d2cb2307eb6398bdb3fd27b00a4f291eb3e9d7d3ad",
    ("random", 16, 2, 1): "7e91a3dc25c65975dfd68df0b0119f99ffbfbcc5b0f49098d0d78866d8446d8d",
    ("random", 20, 3, 0): "13cb8bdd450f08129a9621278844bbe1e8ff14fb18d1750c8d88238de0501558",
    ("random", 24, 3, 1): "6392da1c4623e800309591251f12082bdcec9134714d9332d6c0ba61c423b4f6",
    ("random", 25, 3, 0): "7a862b1c9a340a288599aabb5d0bb94c4afd81c4461c51551f54c62eb90d65ab",
    ("random", 30, 1, 0): "fe770653b7ad57cf05c9c2254baf2e4fde12bc44f6ac2e65b4c3f602a8f8e374",
    ("random", 30, 2, 1): "8def96ab3b2e8fe09d423993541300c54b3967211585e0fd8bf7d9709fc6c985",
    ("random", 60, 3, 0): "7a93907852f9e85ec8ff2a164bfdd4e9cec96d49e5278d6003d42c6f2e1866e3",
    ("windmill", 3): "41bababc032563bf12b31bc453cf42257700f48823a16246234926e1fb13bbc6",
    ("windmill", 10): "ad04e643b2bd5b415985143b3620d7be00e90b09afc2cd67787a9a1fbcb3b931",
    ("gstar", 1): "d4fce2bf65453cb4d12b2fc31b0662135a0b246a3a9ad1ebd3f588b6fb785648",
    ("gstar", 4): "8ab7b821e95eba881c6e05940302b9e9e78ac38130a03875b7e377152c3a4403",
}

THREE_WAY_DIGESTS = {
    ("random", 9, 1, 0): "82c56c60f5913417264411c9d525c02ab4ce589a4c03c967e610bc155b7529c0",
    ("random", 12, 1, 1): "bd3ea6ae999fd044e064daa65b2304eaebe8b4a25af8e8925241c4a052a546ca",
    ("random", 12, 2, 1): "042a10e9a3623a5fb07c686fb630893676cdf1274c3c6e7273ebe71790e18746",
    ("random", 14, 3, 0): "1c3f8769ee47e8c905f67d5561a6ef02da79973f3b1d0464cddae5646e707128",
    ("random", 16, 1, 1): "2cf780a7bd7af71be4b9e245b70fe8187b60128b8919bd9f8b5ae8519f5eedf2",
    ("random", 16, 2, 1): "73806afdcd86e057b259df09e6e6534bfbe8aface6146ad10b6dae22df171505",
    ("random", 20, 3, 0): "22b453746e3b099f9d99d550d3fbf71e8dd6e622902b29d363a3149f4543cb56",
    ("random", 24, 3, 1): "85ebe1b2112d529789e0ff8f2f5010ca88bf5fbeef9ae3223114369e50845751",
    ("random", 25, 3, 0): "f466bab5d47a7dcf8fff622e7f4084233c8a1dc241451aa054eddb9367f556ae",
    ("random", 30, 1, 0): "fa6e7c53f1a181cca619c0c44944bc8640faa0ec32b9bde5b0f073bcf9f330e1",
    ("random", 30, 2, 1): "b627e1ac23ef18c62a3f2f3a86c1a054c7f31aba9fbc7a1336af50dda03960cd",
    ("random", 60, 3, 0): "6ee8f0b6aff731f2e3916029ba4f3a9e9de310c8a62a82d33a35a67012e8cd37",
    ("windmill", 3): "e9d24a3e8e44f25ebe2d347cda4df4e0561ea6f994da8c84a280e6b268cb90d7",
    ("windmill", 10): "dd0929cc81f91c6d18d0d492ee5b829ee4a42913c62cf9b038a925b9d3cbc7f9",
    ("gstar", 1): "a14a0c4888d5550ca82053611b29e693f132c4593b7147fd98b196f0e3d72f3e",
    ("gstar", 4): "6a61b2c9f7ef8e2d8428cd97f62564da3636d72ad1fd51b80fdb0746ef5eec03",
}

THEOREM4_DIGESTS = {
    ("random", 9, 1, 0): "46969273f40f10c0bd0b5e4d27137f46d80b111f10b229b4e2b0fe12b3bdeaa6",
    ("random", 12, 1, 1): "f4ae22d51344976f010c65a73b5f3145cba3028c3dddabf103bb361c569580cb",
    ("random", 12, 2, 1): "efb7ef6851fb2d037139630d1d08caba06d0e9c5c2d79703d6375ea426b45ecb",
    ("random", 14, 3, 0): "fc29a4c0826fd927d35abbd437542ba2b7c2dfe5cbd8cc7bb42c6152064f9a1a",
    ("random", 16, 1, 1): "d65380ea573e35eadcbf58783cbb6480a9ec639e23c5e707b6e812c3ad11757a",
    ("random", 16, 2, 1): "cf2a2760a56ff7fa23d16e6fdb429e631faa1f9d36796cd43fb57965770b66a1",
    ("random", 20, 3, 0): "6c7a707793141990df7f6d3d7aac8adfc591539c5bc24ed49fe872c6fdff184d",
    ("random", 24, 3, 1): "0cecf4a6907400ef4888572a8f708ed5b0309e34184f96ed6965e4cf42a7ba55",
    ("random", 25, 3, 0): "c1e1498107a46f3be335029f669358f8193516e6fe1970620a7389401f3e31ed",
    ("random", 30, 1, 0): "f17e319c795d5604d78139620b58323c37c4f6ab5a55428ac663c94dbf2319cb",
    ("random", 30, 2, 1): "2d6473dc9091a775637735d0b558690f6be762a61a70d42007f6b9397f39ee79",
    ("random", 60, 3, 0): "dcd68ac8eac062bedb2522ea28c3926362dc028ff2afa1e86dff3fa0eb07ee04",
    ("windmill", 3): "f87db2c110c30b16061af131490574e8b968c2164b6cb3433c740a4a3250f493",
    ("windmill", 10): "90aabb34ce095557ff4de4d774336d669ee4fb062e0ab0b3253b9893e178c1c9",
    ("gstar", 1): "d317f1bb329c853466f810522dc4bcbd08ad7036ecde01d7c40b460ca6db0a9c",
    ("gstar", 4): "3bab0993313f6715f57c56788154a115469e84493b137ba78bf3f68d555176e6",
}


def theorem3_digest(spec, capsys, monkeypatch, tmp_path):
    """Standard output of `rainbow3 color --method theorem3 --certs` (automatic
    D) followed by the certificate JSON it writes."""
    certs = tmp_path / "certs.json"
    monkeypatch.setattr("sys.stdin", io.StringIO(write_edge_list(_graph(spec))))
    assert main(["color", "--method", "theorem3", "--certs", str(certs)]) == 0
    return _sha(capsys.readouterr().out + certs.read_text())


THEOREM3_DIGESTS = {
    ("random", 9, 1, 0): "07a32b45244ac711447b9b7c382a8fa40388bdf2501196430548b1916883e636",
    ("random", 12, 1, 1): "f2e94488b9e62196045cebb46f802394339f8b8e23ac5830d81296bfea88b345",
    ("random", 12, 2, 1): "099ff078c1022e1cfbc0a27f0fcf91c34095da45643e5f81c949f6532ab1fc12",
    ("random", 14, 3, 0): "7e14ea24742485808eab356590b84e44e627f8bca15d50cc33bfda3edbe34c2b",
    ("random", 16, 1, 1): "8fc76aae77a7ec6fe90f6049161ac922f58e41da934a26860a74109caf6a93d2",
    ("random", 16, 2, 1): "b3b1cbfa9dd09883d87db32e1952e4fb303014fd925228f9d5b637ae03fecc7f",
    ("random", 20, 3, 0): "677dc5cc5af39ec70deead9bd5ba9c1e3efdc681976a773e7b05d076020dd290",
    ("random", 24, 3, 1): "39adb70f70836b67220507650998f86a75c2788340aa3d517841209c95e755f7",
    ("random", 25, 3, 0): "bedc638052f1863f0f5775a14b2c59b745337313c8c50ffd131cf069ea8297fa",
    ("random", 30, 1, 0): "4a86ede00dcd17cd9fd595fdc9b10c9fcaf97b27889643fe99348bf2effcd4e7",
    ("random", 30, 2, 1): "64ae5555c609aa837d9accadb5c1ee5d5c4ee6589485356941ed60d7430e4f1b",
    ("random", 60, 3, 0): "cdb6256f3476e442c91913e95bd2aa7b5ee45ac6dd90a3059435f47652ec9af4",
    ("windmill", 3): "e2380bb8892525d08ca2b14f53e68e0288953e90a7fb5f489b687e9b13492b3a",
    ("windmill", 10): "6aa6974b2559172effa7f9c4d5863554ce4a70f9f075f5a5c29863325136e9dd",
    ("gstar", 1): "4702d225d50d09b10f40a90d4b16444a7846ac5386892766e01b51cc4f2ddb49",
    ("gstar", 4): "186942924374043a37b939d83e2d9cefbf0219134b6a6c45fe903177aca11953",
    ("random", 2000, 3, 1): "7a7f83142bc5c4815881d7836f446d91a4aed64a15522600cd24104471c6215b",
}


@pytest.mark.parametrize("spec", list(THEOREM3_DIGESTS), ids=str)
def test_color_theorem3_output_pinned(spec, capsys, monkeypatch, tmp_path):
    assert theorem3_digest(spec, capsys, monkeypatch, tmp_path) == THEOREM3_DIGESTS[spec]


@pytest.mark.parametrize("spec", BUILDER_SPECS, ids=str)
def test_bounds_report_pinned(spec):
    assert bounds_digest(spec) == BOUNDS_DIGESTS[spec]


@pytest.mark.parametrize("spec", BUILDER_SPECS, ids=str)
def test_three_way_dominating_set_pinned(spec):
    assert three_way_digest(spec) == THREE_WAY_DIGESTS[spec]


@pytest.mark.parametrize("spec", BUILDER_SPECS, ids=str)
def test_color_theorem4_output_pinned(spec, capsys, monkeypatch):
    assert theorem4_digest(spec, capsys, monkeypatch) == THEOREM4_DIGESTS[spec]

MIN_SET_KINDS = [CONNECTED, k_dominating(2), k_dominating(3), k_way(3), DominationKind(2, 3)]

MIN_SET_DIGESTS = {
    ("path", 20): "4b1c083b30787e2c1376f6d9b270fa8666af83844fb4d5053c1b618572b2ecb6",
    ("cycle", 20): "27f1ec4158d8a41808ec6e72591dc6712d3eef582b3d7d09169ae9ad6b75f9de",
    ("gstar", 2): "44c7c75eaf9a3a89d2725f7c31f54b8680e449281441fa19a01c4e5c593b42fa",
    ("gstar", 2, 4): "e529f7c9785f26c6f09f56425475db47783ecfc92a3958c1bf0bbd711dc87582",
    ("chain", 10, 10): "e65d3b6ed1a88673a3e93a16fff9ba2601aa6b5f769f4ea7b64c898bff80fc10",
    ("random", 18, 1, 0): "d75c33b6e6705fe598e099dd9dec2cd470dda4af591db6e3ff26d8f5e37a7915",
    ("random", 18, 2, 1): "dd652f27130ca57c59c0c932d4bc98ebc0f07141422d05d291bf7d463c06bfad",
    ("random", 20, 1, 1): "723924ab2648d9170739a09451dad52a554499b022dccdae15e13b119273dab0",
    ("random", 20, 2, 0): "e7f659e758ff9b7b39278af1426fdfc90f711af492035441e46bca1f6d3a7320",
    ("random", 22, 1, 3): "ba7d7a6e754a45422a0152f0911fc9b4e53ce55a2c41e8d06758b43795aa7d88",
    ("random", 22, 2, 2): "7f44289501a5e0fdfa37be85e294aea79c72cde8656bf372b1317c0e2ac0a088",
}


@pytest.mark.parametrize("spec", list(MIN_SET_DIGESTS), ids=str)
def test_min_dominating_set_pinned(spec):
    g = _graph(spec)
    sets = [min_dominating_set(g, kind).sorted() for kind in MIN_SET_KINDS]
    assert _sha(repr(sets)) == MIN_SET_DIGESTS[spec]


def exact_digest(graphs, **limits):
    """(k, sorted witness) or None from `exact_rx3_coloring` on each graph."""
    results = []
    for g in graphs:
        found = exact_rx3_coloring(g, **limits)
        results.append(None if found is None else (found[0], sorted(found[1].items())))
    return _sha(repr(results))


EXACT_CASES = {
    "path 9": ([path_graph(9)], {}),
    "cycles 5..7": ([cycle_graph(n) for n in (5, 6, 7)], {}),
    "K3,3 K4 K5": ([complete_bipartite(3, 3), complete_graph(4), complete_graph(5)], {}),
    "windmill 2": ([french_windmill(2).graph], {}),
    "windmill 3 kmax 3": ([french_windmill(3).graph], {"kmax": 3, "max_edges": 18}),
    "windmill 3 kmax 4": ([french_windmill(3).graph], {"kmax": 4, "max_edges": 18}),
    "star K1,7": ([star_graph(8)], {}),
    "random 0..149": ([random_connected(seed) for seed in range(150)], {}),
}

EXACT_DIGESTS = {
    "path 9": "ad21be44a561599ed4b0d73202885e074616679619e77dad6f0334f3d018b3fd",
    "cycles 5..7": "da0311e23ea75b2595d331e7aa365199de884503db7a9b8312408ce705f541db",
    "K3,3 K4 K5": "fce0cdbe4058e5f000a807f0be509074ba337f88f6caf130cc17f4f2c3f78c9b",
    "windmill 2": "cfab78f701e97b50127430a01c66bf2af92ebe0dad268a5b333413e82c123173",
    "windmill 3 kmax 3": "778d5d27b716881dd9d3b58baaed62878f93076984cf0cbb45d393bedf363cb2",
    "windmill 3 kmax 4": "aabab851ae9f66fbd862b12f6175a547438f53a9d55ae10022df27999d5461b8",
    "star K1,7": "098ab698b6bb4f79652e70bd807fc063fca194ce4a51e25679e7048a43caf814",
    "random 0..149": "97dd7af5583e82d1149cc4b9a44e7d390cd1b0b04dd93ea5d842fc475adc81b4",
}


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_exact_rx3_coloring_pinned(case):
    graphs, limits = EXACT_CASES[case]
    assert exact_digest(graphs, **limits) == EXACT_DIGESTS[case]


def verify_digest(spec, extra, change):
    """`is_3_rainbow` report on the +``extra`` coloring of the graph, with
    ``change`` applied: None, "mono" (every edge color 1) or (edge, color)."""
    g = _graph(spec)
    if extra == 6:
        col, _, _ = three_way_coloring(g, three_way_dominating_set(g))
    else:
        col, _ = three_dom_coloring(g, min_connected_k_dominating_set(g, 3))
    if change == "mono":
        col = EdgeColoring.from_dict({e: 1 for e in g.edges})
    elif change is not None:
        edge, color = change
        col = EdgeColoring.from_dict({**col.assignment, edge: color})
    rep = is_3_rainbow(g, col)
    return _sha(repr((rep.verdict, rep.witness, rep.triples_checked)))


VERIFY_DIGESTS = {
    (("windmill", 3), 6, None): "0cba51f942a150bc243f1c677bb85223e9402482fead0caad157ab8bf8d19c9f",
    (("windmill", 10), 6, None): "2b8a06a644fb68da81c3310e1095ae18834304c1d306d54163d2972b35d5569a",
    (("windmill", 20), 6, None): "6af54b465d06b683d5df17513eede88354c8fb8340a7834601043c61bda053fc",
    (("windmill", 40), 6, None): "9b02266545a2de78ea713eca7dbc6a9b71aaed0b25bf8de970e85fd7f42263c5",
    (("threshold", 5), 6, None): "1d440e37799756a31b9682688a2e1bad136bb594dd560bd00df2a957a3aa5ac5",
    (("threshold", 40), 6, None): "84adbd167613f34ebc82e75f6bd89fb84262a4d3c6c19178761037c74f728c80",
    (("threshold", 10), 3, None): "b0ab702bbad662f26b1ab519ad73624a190c35e4f1b270cb9b23b6350d726d01",
    (("chain", 4, 4), 6, None): "1d440e37799756a31b9682688a2e1bad136bb594dd560bd00df2a957a3aa5ac5",
    (("chain", 10, 10), 6, None): "4c0a974f2440e45000d39238e637e0798fbe01909108068d5c1d9bec5b79d408",
    (("chain", 6, 8), 3, None): "1151ad0855a28b883d2ff776fdcacadca607bee18fcc988aabc0cd6857e4b274",
    (("random", 12, 3, 1), 6, None): "5084cb2f888edc9a4820dfad85e8129d85ebd79237877c50393f48c439de3c56",
    (("random", 16, 3, 2), 6, None): "100f6f86cfa384ea4fd219319a90504ca3aaeb61160f3abaa49b7a196b4d3afa",
    (("random", 20, 3, 3), 6, None): "4c0a974f2440e45000d39238e637e0798fbe01909108068d5c1d9bec5b79d408",
    (("random", 40, 3, 1), 6, None): "0951e68a1f8f6c0493f90713f143ef65022bbecb04384083076ff8bb46412d9c",
    (("gstar", 4), 6, None): "4d8db9425d872b956e1775d8d67d8fb9ea40df3fb8ea588327cf30bd91f83eb7",
    (("windmill", 20), 6, "mono"): "d188cc4d5c4f4912a032b9d39b2c4d1c208faae1aacccb915b98ca55b1057944",
    (("chain", 4, 4), 6, "mono"): "d188cc4d5c4f4912a032b9d39b2c4d1c208faae1aacccb915b98ca55b1057944",
    (("random", 16, 3, 2), 6, "mono"): "d188cc4d5c4f4912a032b9d39b2c4d1c208faae1aacccb915b98ca55b1057944",
    (("windmill", 10), 6, ((0, 1), 1)): "2b8a06a644fb68da81c3310e1095ae18834304c1d306d54163d2972b35d5569a",
    (("threshold", 40), 6, ((40, 41), 3)): "48243fdebba76210be55ef42c52b63167ae02a8bbfd61893ff30cc46f547e20e",
    (("threshold", 10), 3, ((11, 12), 2)): "d188cc4d5c4f4912a032b9d39b2c4d1c208faae1aacccb915b98ca55b1057944",
    (("chain", 10, 10), 6, ((7, 11), 2)): "3f301d8ff12db202b2a6ef94042bbece1acf79a8aaeb9d08c86f78bc773994c5",
    (("chain", 6, 8), 3, ((4, 8), 4)): "ed8e98ce10540e88eb59a72dd8e61a06e3e8712917e2b62cb657812c96f0ecaf",
    (("random", 16, 3, 2), 6, ((1, 7), 1)): "1c793fd8368b4ebcc3ef72cf4a785c42408862763c19e8bb0247da9eec168403",
    (("random", 20, 3, 3), 6, ((1, 8), 2)): "c7c5c1e7583da8417371d0dc6d21b890338b47c491571f76becf3f18b5d72eb7",
    (("random", 40, 3, 1), 6, ((0, 10), 3)): "2b404e1bc5d0bd4e5517aa6054f08112eb22e8f6c523be7f4f978900e407f2e9",
    (("gstar", 4), 6, ((1, 2), 8)): "8f28271991133e5f4fa8703b02221552929b0f54ad4cc037dbb634877d06b9a4",
}


@pytest.mark.parametrize("case", list(VERIFY_DIGESTS), ids=str)
def test_is_3_rainbow_report_pinned(case):
    assert verify_digest(*case) == VERIFY_DIGESTS[case]
