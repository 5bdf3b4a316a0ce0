"""Command-line surface: generate family graphs, color them, verify
colorings and certificates, solve small instances exactly, and print bound
reports.

Exit status is 0 on success or a true verdict, 1 on a false verdict, 2 on
usage, format or limit errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from .bounds import bounds_report
from .coloring import (
    ColoringReport,
    read_coloring,
    spanning_tree_coloring,
    three_dom_coloring,
    three_way_coloring,
    write_coloring,
)
from .domination import (
    DominationError,
    dominating_set,
    k_dominating,
    k_way,
)
from .generators import (
    FamilyGraph,
    chain_example,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    french_windmill,
    gstar,
    path_graph,
    random_min_degree,
    star_graph,
    threshold_example,
)
from .graphs import (
    GraphError,
    LimitError,
    read_edge_list,
    sdiam3_with_triple,
    steiner_distance3,
    vertex_set,
    write_edge_list,
)
from .verify import (
    EXACT_KMAX,
    EXACT_MAX_EDGES,
    SafetyCertificate,
    exact_rx3,
    is_3_rainbow,
    verify_certificate,
)

# an unreadable, missing or non-UTF-8 file is a usage error too
_USAGE_ERRORS = (GraphError, DominationError, LimitError, OSError, UnicodeDecodeError)

# `gen` family name -> its generator, called with the parsed options
FAMILIES = {
    "french-windmill": lambda a: french_windmill(a.t),
    "threshold": lambda a: threshold_example(a.t),
    "chain": lambda a: chain_example(a.k, a.t),
    "gstar": lambda a: gstar(a.delta, a.m),
    "random": lambda a: random_min_degree(a.n, a.delta, a.seed),
    "complete": lambda a: complete_graph(a.n),
    "complete-bipartite": lambda a: complete_bipartite(a.s, a.t),
    "path": lambda a: path_graph(a.n),
    "cycle": lambda a: cycle_graph(a.n),
    "star": lambda a: star_graph(a.n),
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_json(data: dict) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True) + "\n")


def _cmd_gen(args: argparse.Namespace) -> int:
    made = FAMILIES[args.family](args)
    if isinstance(made, FamilyGraph):
        graph, labels = made.graph, made.labels
    else:
        graph, labels = made, {}
    _write_text(args.out, write_edge_list(graph))
    if args.labels:
        _write_text(args.labels, json.dumps(labels, sort_keys=True) + "\n")
    return 0


def _auto_dom(graph, method: str):
    return dominating_set(graph, k_way(3) if method == "theorem3" else k_dominating(3))


def _read_dom(text: str) -> frozenset:
    try:
        return frozenset(int(t) for t in text.split())
    except ValueError:
        raise GraphError("dominating-set file must hold integer vertex ids") from None


def _read_certificates(text: str) -> tuple[frozenset, list[SafetyCertificate]]:
    """(dom, certificates) from a certificate file written by ``color --certs``."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise GraphError(f"certificate file is not JSON: {exc}") from None
    if not isinstance(data, dict) or "certificates" not in data:
        raise GraphError("certificate file must be an object with a 'certificates' list")
    dom = data.get("dom", [])
    if not isinstance(dom, list) or not all(type(x) is int for x in dom):
        raise GraphError("certificate file: dom must be a list of integer vertex ids")
    try:
        certs = [
            SafetyCertificate(
                vertex=raw["vertex"],
                paths=tuple(tuple(p) for p in raw["paths"]),
                color_sets=tuple(frozenset(s) for s in raw["color_sets"]),
            )
            for raw in data["certificates"]
        ]
    except KeyError as exc:
        raise GraphError(f"certificate entry lacks {exc}") from None
    except TypeError:
        msg = "certificate file: certificates, paths and color_sets must be JSON lists"
        raise GraphError(msg) from None
    # type(x) is int: a JSON true or 1.0 is neither a vertex nor a color
    if any(type(x) is not int for c in certs
           for x in (c.vertex, *sum(c.paths, ()), *(k for s in c.color_sets for k in s))):
        raise GraphError("certificate vertices and colors must be integers")
    return frozenset(dom), certs


def _cmd_color(args: argparse.Namespace) -> int:
    graph = read_edge_list(_read_text(args.infile))
    certificates: list[SafetyCertificate] = []
    if args.method == "spanning":
        coloring = spanning_tree_coloring(graph)
        report = ColoringReport(
            method="spanning",
            n=graph.n,
            dom=(),
            d=0,
            num_colors=coloring.num_colors,
            inner_method="none",
        )
    else:
        if args.dom == "auto":
            dom = _auto_dom(graph, args.method)
        else:
            dom = _read_dom(_read_text(args.dom))
        if args.method == "theorem3":
            coloring, certificates, report = three_way_coloring(graph, dom)
        else:
            coloring, report = three_dom_coloring(graph, dom)
    _write_text(args.out, write_coloring(coloring, report))
    if args.certs:
        payload = {
            "dom": list(report.dom),
            "certificates": [
                {
                    "vertex": c.vertex,
                    "paths": [list(p) for p in c.paths],
                    "color_sets": [sorted(s) for s in c.color_sets],
                }
                for c in certificates
            ],
        }
        _write_text(args.certs, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    graph, coloring, meta = read_coloring(_read_text(args.infile))
    report = is_3_rainbow(graph, coloring)
    payload = report.to_json_dict()
    ok = report.verdict
    if args.certs:
        dom, certs = _read_certificates(_read_text(args.certs))
        dom = vertex_set(graph, dom) or frozenset(meta.get("dom", ()))
        results = [verify_certificate(graph, coloring, dom, cert) for cert in certs]
        payload["certificates"] = {
            "checked": len(results),
            "ok": all(results),
            "failing": [cert.vertex for cert, r in zip(certs, results) if not r],
        }
        ok = ok and all(results)
    _print_json(payload)
    return 0 if ok else 1


def _cmd_exact(args: argparse.Namespace) -> int:
    graph = read_edge_list(_read_text(args.infile))
    value = exact_rx3(graph, kmax=args.kmax, max_edges=args.max_edges)
    if value is None:
        _print_json({"rx3": None, "status": f"exceeds kmax={args.kmax}"})
    else:
        _print_json({"rx3": value, "status": "exact"})
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    graph = read_edge_list(_read_text(args.infile))
    report = bounds_report(graph)
    _print_json(report.to_json_dict())
    return 0


def _cmd_steiner(args: argparse.Namespace) -> int:
    graph = read_edge_list(_read_text(args.infile))
    value, triple = sdiam3_with_triple(graph)
    # an independent median scan re-checks the witness; a mismatch is a
    # library bug, so it escapes as a traceback rather than a usage error
    check = steiner_distance3(graph, triple)
    if check != value:
        raise RuntimeError(
            f"sdiam3_with_triple gave {value} at {list(triple)}, "
            f"but steiner_distance3 gives {check}"
        )
    _print_json({"sdiam3": value, "triple": list(triple)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbow3",
        description="3-rainbow colorings via dominating sets, with verification",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a family graph as an edge list")
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--labels", default=None, help="write the label map as JSON")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="color a graph read from a file or stdin")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--method", choices=["spanning", "theorem3", "theorem4"], default="theorem3")
    p.add_argument("--dom", default="auto", help="'auto' or a file of vertex ids")
    p.add_argument("--out", default="-")
    p.add_argument("--certs", default=None, help="write safety certificates as JSON")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring file")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--certs", default=None, help="re-check a certificate file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="exact minimum 3-rainbow color count")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--kmax", type=int, default=EXACT_KMAX)
    p.add_argument("--max-edges", type=int, default=EXACT_MAX_EDGES)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bounds", help="print the bound report as JSON")
    p.add_argument("--in", dest="infile", default="-")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("steiner", help="Steiner 3-diameter and an extremal triple")
    p.add_argument("--in", dest="infile", default="-")
    p.set_defaults(func=_cmd_steiner)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"rainbow3: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
