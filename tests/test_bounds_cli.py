import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rainbow3 import (
    GraphError,
    bounds_report,
    build_graph,
    complete_graph,
    french_windmill,
    random_min_degree,
    read_coloring,
    sdiam3,
    spanning_tree_coloring,
    threshold_example,
    write_coloring,
    write_edge_list,
)
from rainbow3 import bounds, domination
from rainbow3.cli import FAMILIES, main
from rainbow3.coloring import ColoringReport
from conftest import connected_graphs


def test_bounds_threshold_route_a_wins():
    g = threshold_example(5).graph
    rep = bounds_report(g)
    assert rep.bound_a["value"] == 5
    assert rep.bound_c["value"] == 6
    assert rep.best == 5
    assert rep.gamma_c == {"value": 1, "provenance": "exact"}


def test_bounds_windmill_route_c_wins():
    g = french_windmill(3).graph
    rep = bounds_report(g)
    assert rep.bound_c["value"] == 6
    assert rep.bound_a["value"] > 6
    assert rep.best == 6
    assert rep.bound_b["constructed"] is False


def test_bounds_k4():
    rep = bounds_report(complete_graph(4))
    assert rep.gamma_c["value"] == 1
    assert rep.sdiam3 == 2
    assert rep.best >= rep.sdiam3
    assert rep.n1 == 0 and rep.n2 == 0


def test_bounds_family_value():
    g = french_windmill(3).graph
    rep = bounds_report(g)
    assert rep.delta == 3
    assert rep.corollary_bounds["min_degree_family"] == 0.75 * g.n + 3
    assert rep.corollary_bounds["gamma_c_n1_n2"] == rep.gamma_c["value"] + 5


@pytest.mark.parametrize("n, family", [(5, 6.4), (6, 6.0)], ids=["delta-4", "delta-5"])
def test_bounds_family_value_above_degree_three(n, family):
    # K_5 and K_6 have delta 4 and 5, so the 0.6n + 3.4 and 0.5n + 3 forms apply
    rep = bounds_report(complete_graph(n))
    assert rep.delta == n - 1
    assert rep.corollary_bounds["min_degree_family"] == family
    assert rep.best == 5


@pytest.mark.parametrize("n,calls", [(12, 1), (20, 1), (30, 0)])
def test_bounds_report_enumerates_min_cds_at_most_once(n, calls, monkeypatch):
    seen = []
    real = domination.min_connected_dominating_set

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    for module in (domination, bounds):
        if getattr(module, "min_connected_dominating_set", None) is real:
            monkeypatch.setattr(module, "min_connected_dominating_set", counted)
    rep = bounds_report(random_min_degree(n, 3, 0))
    assert len(seen) == calls
    assert rep.gamma_c["provenance"] == ("exact" if calls else "heuristic")


@given(connected_graphs(min_n=4, max_n=9))
@settings(max_examples=20, deadline=None)
def test_bounds_upper_meets_lower(g):
    rep = bounds_report(g)
    assert rep.best >= rep.sdiam3


def test_bounds_json_deterministic():
    g = threshold_example(5).graph
    a = json.dumps(bounds_report(g).to_json_dict(), sort_keys=True)
    b = json.dumps(bounds_report(g).to_json_dict(), sort_keys=True)
    assert a == b


def test_coloring_file_roundtrip():
    g = complete_graph(4)
    col = spanning_tree_coloring(g)
    report = ColoringReport(
        method="spanning", n=4, dom=(), d=0, num_colors=col.num_colors, inner_method="none"
    )
    text = write_coloring(col, report)
    g2, col2, meta = read_coloring(text)
    assert g2 == g
    assert col2 == col
    assert meta["method"] == "spanning" and meta["n"] == 4


# ---------------------------------------------------------------------------
# CLI plumbing.

def _cli(argv, stdin_text=""):
    """(exit code, stdout, stderr) of one ``main`` call reading ``stdin_text``;
    redirected rather than captured, so hypothesis examples can share it."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin_text)), redirect_stdout(out), \
            redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_gen_color_verify_pipeline():
    code, graph_text, _ = _cli(["gen", "french-windmill", "--t", "3"])
    assert code == 0
    code, colored, _ = _cli(["color", "--method", "theorem3"], stdin_text=graph_text)
    assert code == 0
    assert "# method=theorem3" in colored
    code, verdict_json, _ = _cli(["verify"], stdin_text=colored)
    assert code == 0
    report = json.loads(verdict_json)
    assert report["verdict"] is True
    assert report["colors"] == 6


def test_cli_gen_labels(tmp_path):
    labels_file = tmp_path / "labels.json"
    out_file = tmp_path / "graph.txt"
    code, _, _ = _cli(
        ["gen", "threshold", "--t", "5", "--out", str(out_file), "--labels", str(labels_file)]
    )
    assert code == 0
    labels = json.loads(labels_file.read_text())
    assert labels["y1"] == 5
    assert out_file.read_text().startswith("8 18")


@pytest.mark.parametrize("sides", [["--s", "-1", "--t", "3"], ["--s", "2", "--t", "-2"]],
                         ids=["negative-s", "negative-t"])
def test_cli_gen_complete_bipartite_negative_side_exits_two(sides):
    code, out, err = _cli(["gen", "complete-bipartite"] + sides)
    assert code == 2
    assert out == ""
    assert err.startswith("rainbow3: ") and err.count("\n") == 1


def test_cli_exact_k33():
    g = write_edge_list(build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)]))
    code, out, _ = _cli(["exact", "--kmax", "3"], stdin_text=g)
    assert code == 0
    assert json.loads(out) == {"rx3": 3, "status": "exact"}


def test_cli_exact_exceeds():
    g = write_edge_list(build_graph(5, [(i, i + 1) for i in range(4)]))
    code, out, _ = _cli(["exact", "--kmax", "2"], stdin_text=g)
    assert code == 0
    assert json.loads(out)["rx3"] is None


@pytest.mark.parametrize("limits, named", [
    (["--kmax", "-3"], "kmax"),
    (["--kmax", "0"], "kmax"),
    (["--max-edges", "-1"], "max_edges"),
], ids=["kmax-negative", "kmax-zero", "max-edges-negative"])
def test_cli_exact_malformed_limits_exit_two(limits, named):
    g = write_edge_list(build_graph(3, [(0, 1), (1, 2)]))
    code, out, err = _cli(["exact"] + limits, stdin_text=g)
    assert code == 2
    assert out == ""
    assert err.startswith(f"rainbow3: {named} must be ") and err.count("\n") == 1


def test_cli_bounds_fields():
    g = write_edge_list(threshold_example(5).graph)
    code, out, _ = _cli(["bounds"], stdin_text=g)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "n", "m", "delta", "n1", "n2", "gamma_c", "sdiam3",
        "bound_a", "bound_b", "bound_c", "corollary_bounds", "best",
    }
    assert data["best"] == 5


def test_cli_steiner():
    g = write_edge_list(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    code, out, _ = _cli(["steiner"], stdin_text=g)
    assert code == 0
    data = json.loads(out)
    assert data["sdiam3"] == 3
    assert data["triple"] == [0, 1, 3]


def test_cli_steiner_fails_loudly_on_a_wrong_witness(monkeypatch):
    # on the 4-vertex path the triple (0, 1, 2) has Steiner distance 2, not 3
    monkeypatch.setattr("rainbow3.cli.sdiam3_with_triple", lambda g: (3, (0, 1, 2)))
    g = write_edge_list(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(RuntimeError, match=r"gave 3 at \[0, 1, 2\], but steiner_distance3 gives 2"):
        _cli(["steiner"], stdin_text=g)


def test_cli_verify_false_coloring_exits_one():
    bad = "# method=spanning n=3 colors=1\n0 1 1\n0 2 1\n1 2 1\n"
    code, out, _ = _cli(["verify"], stdin_text=bad)
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_cli_verify_over_work_budget_exits_two(monkeypatch):
    monkeypatch.setattr("rainbow3.verify.VERIFY_WORK_BUDGET", 2)
    code, out, err = _cli(["verify"], stdin_text=COLORED_PATH)
    assert code == 2
    assert out == ""
    assert err == "rainbow3: verifier work budget 2 exceeded\n"


def test_cli_usage_error_exits_two():
    code, _, err = _cli(["color"], stdin_text="garbage\n")
    assert code == 2
    assert "rainbow3" in err


@pytest.mark.parametrize(
    "text,message",
    [("# method=spanning n=3 colors=2\n" + rows, "rainbow3: bad coloring line")
     for rows in ["0 1 x\n1 2 1\n", "0 1 1.5\n1 2 1\n", "0 1 0\n1 2 -2\n",
                  "0 1 1\n1 2 -2\n", "0 1 1\n1 2 2\n1 0 2\n", "0 1\n"]]
    + [("0 1 1\n1 2 2\n", "rainbow3: coloring header must record n\n")],
    ids=["non-integer", "fraction", "zero-color", "negative-color", "edge-twice", "two-fields",
         "no-n-header"],
)
def test_cli_verify_malformed_coloring_exits_two(text, message):
    code, out, err = _cli(["verify"], stdin_text=text)
    assert code == 2
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


COLORED_PATH = "# method=spanning n=3 colors=2\n0 1 1\n1 2 2\n"
CERT = {"vertex": 2, "paths": [[2, 1]], "color_sets": [[2]]}


@pytest.mark.parametrize(
    "argv,file_text,stdin_text",
    [
        (["color", "--dom"], "1\nx\n", "4 3\n0 1\n1 2\n2 3\n"),
        (["verify", "--certs"], "not json", COLORED_PATH),
        (["verify", "--certs"], "[]", COLORED_PATH),
        (["verify", "--certs"], json.dumps({"dom": [0, 1]}), COLORED_PATH),
        # no certificate to check, so only the dom can fail
        (["verify", "--certs"], json.dumps({"dom": [0, 99], "certificates": []}), COLORED_PATH),
        (["exact", "--in"], "5 3\n0 1\n1 2\n3 4\n", ""),
    ]
    + [
        (["verify", "--certs"], json.dumps({"dom": [0, 1], "certificates": [
            {k: v for k, v in CERT.items() if k != key}]}), COLORED_PATH)
        for key in CERT
    ]
    + [
        (["verify", "--certs"], json.dumps({"dom": dom, "certificates": [cert]}), COLORED_PATH)
        for dom, cert in [
            ([0, 1], dict(CERT, paths=[[2, [1]]])),
            ("0", CERT),
            (["x"], CERT),
            ([0.0], CERT),
            ([0, 1], dict(CERT, vertex=True)),
            ([0, 1], dict(CERT, paths=[[2, True]])),
            ([0, 1], dict(CERT, color_sets=[[True]])),
            ([0, 1], dict(CERT, paths=5)),
        ]
    ],
    ids=["dom-non-integer", "certs-not-json", "certs-not-object", "certs-missing-list",
         "certs-dom-outside-the-graph", "exact-disconnected",
         "cert-missing-vertex", "cert-missing-paths", "cert-missing-color-sets",
         "cert-non-integer-vertex", "certs-dom-string", "certs-dom-non-integer",
         "certs-dom-float", "cert-boolean-vertex", "cert-boolean-path-vertex",
         "cert-boolean-color", "cert-paths-not-a-list"],
)
def test_cli_malformed_input_file_exits_two(argv, file_text, stdin_text, tmp_path):
    path = tmp_path / "input"
    path.write_text(file_text)
    code, out, err = _cli(argv + [str(path)], stdin_text=stdin_text)
    assert code == 2
    assert out == ""
    assert err.startswith("rainbow3: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,stdin_text",
    [
        (["bounds", "--in", "{tmp}/missing.txt"], ""),
        (["color", "--dom", "{tmp}/missing"], "4 3\n0 1\n1 2\n2 3\n"),
        (["verify", "--certs", "{tmp}/missing"], COLORED_PATH),
        (["bounds", "--in", "{tmp}/latin1.txt"], ""),
        (["gen", "path", "--out", "{tmp}/no-such-dir/path.txt"], ""),
    ],
    ids=["bounds-missing-input", "color-missing-dom", "verify-missing-certs",
         "non-utf8-input", "gen-out-missing-dir"],
)
def test_cli_file_errors_exit_two(argv, stdin_text, tmp_path):
    (tmp_path / "latin1.txt").write_bytes(b"2 1\n0 1 # caf\xe9\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = _cli(argv, stdin_text=stdin_text)
    assert code == 2
    assert out == ""
    assert err.startswith("rainbow3: ") and err.count("\n") == 1


def test_read_coloring_rejects_bad_header_value():
    with pytest.raises(GraphError, match="header"):
        read_coloring("# method=spanning n=three\n0 1 1\n")


def test_read_coloring_skips_blank_lines():
    g, col, meta = read_coloring("# method=spanning n=3 colors=2\n\n0 1 1\n   \n1 2 2\n")
    assert g.edges == ((0, 1), (1, 2))
    assert col.assignment == {(0, 1): 1, (1, 2): 2}
    assert meta == {"method": "spanning", "n": 3, "colors": 2}


def test_cli_verify_header_dom_outside_the_graph_exits_two():
    text = "# method=theorem3 n=3 d=0 colors=2\n# dom=0,9\n0 1 1\n1 2 2\n"
    assert _cli(["verify"], stdin_text=text) == (
        2, "", "rainbow3: vertex 9 is not a vertex of g (n=3)\n")


def test_cli_dom_file_and_certs(tmp_path):
    g = french_windmill(3).graph
    dom_file = tmp_path / "dom.txt"
    dom_file.write_text("0\n")
    certs_file = tmp_path / "certs.json"
    colored_file = tmp_path / "col.txt"
    code, _, _ = _cli(
        ["color", "--dom", str(dom_file), "--certs", str(certs_file), "--out", str(colored_file)],
        stdin_text=write_edge_list(g),
    )
    assert code == 0
    certs = json.loads(certs_file.read_text())
    assert certs["dom"] == [0]
    assert len(certs["certificates"]) == 9
    code, out, _ = _cli(["verify", "--certs", str(certs_file)],
                        stdin_text=colored_file.read_text())
    assert code == 0
    data = json.loads(out)
    assert data["certificates"]["ok"] is True
    assert data["certificates"]["checked"] == 9


def test_cli_verify_rejects_wrong_certificate_color_set(tmp_path):
    g = french_windmill(3).graph
    certs_file = tmp_path / "certs.json"
    colored_file = tmp_path / "col.txt"
    code, _, _ = _cli(["color", "--certs", str(certs_file), "--out", str(colored_file)],
                      stdin_text=write_edge_list(g))
    assert code == 0
    data = json.loads(certs_file.read_text())
    bad = data["certificates"][4]
    bad["color_sets"][2] = [99]
    certs_file.write_text(json.dumps(data))
    code, out, _ = _cli(["verify", "--certs", str(certs_file)],
                        stdin_text=colored_file.read_text())
    assert code == 1
    result = json.loads(out)
    assert result["verdict"] is True
    assert result["certificates"] == {"checked": 9, "ok": False, "failing": [bad["vertex"]]}


def test_cli_spanning_method():
    g = write_edge_list(complete_graph(4))
    code, colored, _ = _cli(["color", "--method", "spanning"], stdin_text=g)
    assert code == 0
    code, out, _ = _cli(["verify"], stdin_text=colored)
    assert code == 0 and json.loads(out)["verdict"] is True


def test_cli_spanning_disconnected_exits_two():
    # theorem3 and theorem4 stop in the exact domination search
    g = write_edge_list(build_graph(4, [(0, 1), (2, 3)]))
    for method in ("spanning", "theorem3", "theorem4"):
        code, out, err = _cli(["color", "--method", method], stdin_text=g)
        assert (code, out, err) == (2, "", "rainbow3: graph must be connected\n"), method


def test_cli_bounds_has_no_exact_limit_flag(capsys):
    # argparse exits before any input is read
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--exact-limit", "8"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_cli_theorem4_method():
    g = write_edge_list(threshold_example(5).graph)
    code, colored, _ = _cli(["color", "--method", "theorem4"], stdin_text=g)
    assert code == 0
    graph, coloring, meta = read_coloring(colored)
    assert meta["method"] == "theorem4"
    assert coloring.num_colors <= 5


def test_cli_random_gen_roundtrip():
    code, out1, _ = _cli(["gen", "random", "--n", "12", "--delta", "3", "--seed", "5"])
    code, out2, _ = _cli(["gen", "random", "--n", "12", "--delta", "3", "--seed", "5"])
    assert out1 == out2


GEN_CORPUS = [
    (["gen", "french-windmill", "--t", "3"], "theorem3"),
    (["gen", "french-windmill", "--t", "4"], "theorem3"),
    (["gen", "threshold", "--t", "6"], "theorem4"),
    (["gen", "threshold", "--t", "6"], "theorem3"),
    (["gen", "chain", "--k", "6", "--t", "8"], "theorem4"),
    (["gen", "gstar", "--delta", "3", "--m", "1"], "theorem3"),
    (["gen", "complete", "--n", "6"], "theorem4"),
    (["gen", "random", "--n", "14", "--delta", "3", "--seed", "9"], "theorem3"),
    (["gen", "cycle", "--n", "7"], "spanning"),
]


@pytest.mark.parametrize("gen_argv,method", GEN_CORPUS)
def test_cli_every_emitted_coloring_verifies(gen_argv, method):
    code, graph_text, _ = _cli(gen_argv)
    assert code == 0
    code, colored, _ = _cli(["color", "--method", method], stdin_text=graph_text)
    assert code == 0
    code, out, _ = _cli(["verify"], stdin_text=colored)
    assert code == 0
    assert json.loads(out)["verdict"] is True


# ---------------------------------------------------------------------------
# Fuzzed CLI inputs: every subcommand ends in exit 0, 1 or 2 without a
# traceback, and only a `verify` verdict gives exit 1.

_JUNK = st.sampled_from(["x", "-1", "1.5", "9", "nan", "#", "n=x", "dom=0,y"])


@st.composite
def _input_texts(draw, colored):
    """Small edge-list or coloring text, often connected (a path plus
    chords), sometimes with one token replaced."""
    n = draw(st.integers(0, 8))
    path = [(i, i + 1) for i in range(n - 1)] if draw(st.booleans()) else []
    chords = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                           max_size=8)) if n >= 2 else []
    edges = list(dict.fromkeys(path + chords))
    if colored:
        head = f"# method=spanning n={n}" + draw(st.sampled_from(["", " dom=0,1"]))
        rows = [f"{u} {v} {draw(st.integers(1, 4))}" for u, v in edges]
    else:
        head, rows = f"{n} {len(edges)}", [f"{u} {v}" for u, v in edges]
    lines = [head] + rows
    bad = draw(st.none() | st.integers(0, len(lines) - 1))
    if bad is not None:
        tokens = lines[bad].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_JUNK)
        lines[bad] = " ".join(tokens)
    return "\n".join(lines) + "\n"


_ARGS = st.sampled_from(["-1", "0", "1", "2", "3", "5"])
_GEN = st.tuples(st.sampled_from(sorted(FAMILIES)), st.lists(
    st.tuples(st.sampled_from(["--t", "--k", "--delta", "--m", "--n", "--s"]), _ARGS),
    max_size=3,
)).map(lambda case: ["gen", case[0]] + [x for opt in case[1] for x in opt])
_ON_GRAPH = st.sampled_from([
    ["color", "--method", "theorem3"],
    ["color", "--method", "theorem4"],
    ["color", "--method", "spanning"],
    ["bounds"],
    ["steiner"],
    ["exact", "--kmax", "3"],
    ["exact", "--kmax", "9"],
])


@given(st.one_of(
    st.tuples(_GEN, st.just("")),
    st.tuples(_ON_GRAPH, _input_texts(colored=False)),
    st.tuples(st.just(["verify"]), _input_texts(colored=True)),
))
@settings(max_examples=150, deadline=None)
def test_cli_fuzzed_input_exit_codes(case):
    argv, text = case
    code, out, err = _cli(argv, text)
    assert code in (0, 1, 2)
    if code == 1:
        assert argv[0] == "verify" and json.loads(out)["verdict"] is False
    if code == 2:
        assert err.startswith("rainbow3: ") and err.count("\n") == 1
    else:
        assert err == ""
