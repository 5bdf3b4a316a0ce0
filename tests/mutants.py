"""Mutation harness for the trust path: how many one-edit mutants of each
checker, verifier, reader and construction pass does the test suite kill?

A mutant is one AST edit of one target function (or of a marked region of
it), spliced into a temporary copy of ``src/`` and ``tests/``; the checkout
is never written.  The target's test files then run under
``python -m pytest -x -q`` with the pytest cache, bytecode files and the
hypothesis database off and hypothesis derandomized, so a rerun kills the
same mutants.  A mutant is killed iff that run exits non-zero (a run past
its time limit counts as killed).  Mutant ids are ``target:operator:k``,
the k-th site of that operator in the target in source order, so a
survivor can be named in DECISIONS.md.

    python tests/mutants.py                    # every target
    python tests/mutants.py verify.certificate_colors
    python tests/mutants.py --list [target]    # the mutants, without running
    python tests/mutants.py --gate DECISIONS.md

``--gate`` fails (exit 1) when a target's kill rate is below the last
``killed / total`` column of its row in the file's kill-rate table.
Standard library only.
"""
from __future__ import annotations

import argparse
import ast
import copy
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY_LIMIT = 2 << 30  # bytes of address space per test run


@dataclass(frozen=True)
class Target:
    module: str               # file name under src/rainbow3, without .py
    function: str             # a top-level function of that module
    region: tuple | None      # (first, last): substrings of the first and last mutated lines
    tests: tuple              # test files, the fastest killers first


TARGETS = {
    "verify.certificate_colors": Target(
        "verify", "certificate_colors", None, ("test_verify.py", "test_coloring.py")),
    "verify.verify_certificate": Target(
        "verify", "verify_certificate", None, ("test_verify.py", "test_bounds_cli.py")),
    "verify._tree_levels": Target("verify", "_tree_levels", None, ("test_verify.py",)),
    "domination.check_domination": Target(
        "domination", "check_domination", None, ("test_domination.py", "test_coloring.py")),
    "domination.dominating_set": Target(
        "domination", "dominating_set",
        ("dset = set(core.vertices)", 'raise AssertionError(f"growth failed'),
        ("test_domination.py", "test_identity.py")),
    "coloring.three_way_coloring": Target(
        "coloring", "three_way_coloring",
        ("rewalk.add(root)", "return coloring, certificates, report"),
        ("test_coloring.py", "test_identity.py")),
    "coloring._certify": Target(
        "coloring", "_certify", None, ("test_coloring.py", "test_identity.py")),
    "coloring.stage1_periodic": Target(
        "coloring", "stage1_periodic",
        ("for foot in adj[v]:", "certs[v] = (((v, x), (v, foot)"),
        ("test_coloring.py", "test_identity.py")),
    "graphs.sdiam3_with_triple": Target(
        "graphs", "sdiam3_with_triple", None, ("test_graphs.py", "test_identity.py")),
    "graphs.vertex_set": Target(
        "graphs", "vertex_set", None,
        ("test_graphs.py", "test_domination.py", "test_bounds_cli.py")),
    "cli._read_certificates": Target("cli", "_read_certificates", None, ("test_bounds_cli.py",)),
    "coloring.read_coloring": Target(
        "coloring", "read_coloring", None, ("test_bounds_cli.py", "test_coloring.py")),
    "graphs.read_edge_list": Target(
        "graphs", "read_edge_list", None, ("test_graphs.py", "test_bounds_cli.py")),
}

# operator name -> the AST op types it swaps, each with its partner
SWAPS = {
    "lt-le": {ast.Lt: ast.LtE, ast.LtE: ast.Lt},
    "gt-ge": {ast.Gt: ast.GtE, ast.GtE: ast.Gt},
    "eq-ne": {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq},
    "in-notin": {ast.In: ast.NotIn, ast.NotIn: ast.In},
    "and-or": {ast.And: ast.Or, ast.Or: ast.And},
    "bitand-bitor": {ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd},
}
OPERATORS = (*SWAPS, "drop-not", "int+1", "int-1", "break-continue", "drop-return")


@dataclass(frozen=True)
class Mutant:
    id: str
    start: tuple         # (1-based line, byte column) of the replaced source
    end: tuple
    text: str            # the replacement source


def _children(node: ast.AST):
    """Pre-order walk in field order, skipping f-strings (their inner
    positions are not reliable before Python 3.12)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.JoinedStr):
            continue
        yield child
        yield from _children(child)


def _edits(node: ast.AST):
    """(operator, replacement source) for every mutation of this one node;
    an edited expression is parenthesized, so it binds as the original did."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for name, swap in SWAPS.items():
                if type(op) in swap:
                    new = copy.deepcopy(node)
                    new.ops[i] = swap[type(op)]()
                    yield name, f"({ast.unparse(new)})"
    elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)):
        for name, swap in SWAPS.items():
            if type(node.op) in swap:
                new = copy.deepcopy(node)
                new.op = swap[type(node.op)]()
                text = ast.unparse(new)
                yield name, text if isinstance(node, ast.AugAssign) else f"({text})"
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "drop-not", f"({ast.unparse(node.operand)})"
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield "int+1", f"({node.value + 1})"
        yield "int-1", f"({node.value - 1})"
    elif isinstance(node, ast.Break):
        yield "break-continue", "continue"
    elif isinstance(node, ast.Continue):
        yield "break-continue", "break"
    elif isinstance(node, ast.Return) and (
        node.value is None
        or isinstance(node.value, ast.Constant) and node.value.value in (None, False)
        and type(node.value.value) is not int  # 0 == False, but `return 0` stays
    ):
        yield "drop-return", "pass"


def target_source(name: str) -> str:
    """The source of the module holding the target, as checked out."""
    return (ROOT / "src" / "rainbow3" / f"{TARGETS[name].module}.py").read_text(encoding="utf-8")


def mutants(name: str, source: str | None = None) -> list[Mutant]:
    """Every mutant of one target, in source order per operator."""
    target = TARGETS[name]
    source = target_source(name) if source is None else source
    func = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == target.function
    )
    first, last = func.lineno, func.end_lineno
    if target.region is not None:
        lines = source.splitlines()
        start_at, end_at = target.region
        first = next(i for i in range(first, last + 1) if start_at in lines[i - 1])
        last = next(i for i in range(first, last + 1) if end_at in lines[i - 1])
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    counts = dict.fromkeys(OPERATORS, 0)
    out = []
    for stmt in body:
        for node in (stmt, *_children(stmt)):
            if not first <= getattr(node, "lineno", 0) <= getattr(node, "end_lineno", 0) <= last:
                continue
            for op, text in _edits(node):
                out.append(Mutant(
                    f"{name}:{op}:{counts[op]}", (node.lineno, node.col_offset),
                    (node.end_lineno, node.end_col_offset), text,
                ))
                counts[op] += 1
    return out


def _span(source: str, mutant: Mutant) -> tuple[bytes, int, int]:
    """The source as UTF-8 and the byte offsets of the mutant's edit (the
    AST gives columns as UTF-8 byte offsets)."""
    data = source.encode("utf-8")
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    (l0, c0), (l1, c1) = mutant.start, mutant.end
    return data, starts[l0 - 1] + c0, starts[l1 - 1] + c1


def apply(source: str, mutant: Mutant) -> str:
    """The module source with the mutant's edit spliced in."""
    data, i, j = _span(source, mutant)
    return (data[:i] + mutant.text.encode("utf-8") + data[j:]).decode("utf-8")


def original_text(source: str, mutant: Mutant) -> str:
    """The source the mutant's edit replaces."""
    data, i, j = _span(source, mutant)
    return data[i:j].decode("utf-8")


_PROFILE = """\
from hypothesis import settings

settings.register_profile("mutants", database=None, derandomize=True)
"""


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


class Sandbox:
    """A temporary copy of src/ and tests/ where one module at a time is
    rewritten; ``run`` runs test files there and returns (passed, seconds)."""

    def __init__(self) -> None:
        self._dir = tempfile.TemporaryDirectory(prefix="rainbow3-mutants-")
        self.path = Path(self._dir.name)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, self.path / sub, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", self.path / "pyproject.toml")
        (self.path / "_mutants_profile.py").write_text(_PROFILE)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((str(self.path / "src"), str(self.path))),
            PYTHONDONTWRITEBYTECODE="1",
        )

    def write(self, module: str, text: str) -> None:
        (self.path / "src" / "rainbow3" / f"{module}.py").write_text(text, encoding="utf-8")

    def run(self, tests, timeout: float | None = None) -> tuple[bool, float]:
        """Run pytest on test files (or node ids) under tests/."""
        cmd = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-p", "_mutants_profile", "--hypothesis-profile=mutants",
            *(f"tests/{t}" for t in tests),
        ]
        began = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.path, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True, preexec_fn=_limit_memory,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
        return code == 0, time.perf_counter() - began

    def close(self) -> None:
        self._dir.cleanup()

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _describe(source: str, mutant: Mutant) -> str:
    was = " ".join(original_text(source, mutant).split())
    return f"{mutant.id}  line {mutant.start[0]}: {was} -> {mutant.text}"


def run_target(name: str, sandbox: Sandbox) -> tuple[int, int]:
    """(killed, total) for one target; prints one line per mutant."""
    target = TARGETS[name]
    source = target_source(name)
    passed, seconds = sandbox.run(target.tests)
    if not passed:
        raise SystemExit(f"{name}: the unmutated tests fail; fix them before measuring")
    timeout = 5 * seconds + 30
    todo = mutants(name, source)
    unmutated = ast.dump(ast.parse(source))
    killed = 0
    try:
        for mutant in todo:
            text = apply(source, mutant)
            if ast.dump(ast.parse(text)) == unmutated:
                raise SystemExit(f"{mutant.id} leaves the module unchanged")
            sandbox.write(target.module, text)
            passed, spent = sandbox.run(target.tests, timeout)
            killed += not passed
            verdict = "SURVIVED" if passed else "timeout " if spent >= timeout else "killed  "
            print(verdict, _describe(source, mutant), flush=True)
    finally:
        sandbox.write(target.module, source)
    return killed, len(todo)


RATE_ROW = re.compile(r"^\|\s*`([\w.]+)`\s*\|.*\|\s*(\d+)\s*/\s*(\d+)\s*\|\s*$")


def recorded_rates(path: Path) -> dict:
    """target -> (killed, total) from the last column of its table row."""
    rates = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        match = RATE_ROW.match(line.strip())
        if match and match.group(1) in TARGETS:
            rates[match.group(1)] = (int(match.group(2)), int(match.group(3)))
    return rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", help="target names (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants, run nothing")
    parser.add_argument("--gate", type=Path, help="fail below the kill rates recorded in this file")
    args = parser.parse_args(argv)
    unknown = [t for t in args.targets if t not in TARGETS]
    if unknown:
        parser.error(f"unknown target(s) {unknown}; known: {', '.join(TARGETS)}")
    names = args.targets or list(TARGETS)
    if args.list:
        for name in names:
            source = target_source(name)
            for mutant in mutants(name, source):
                print(_describe(source, mutant))
        return 0
    floor = recorded_rates(args.gate) if args.gate else {}
    rows, failed = [], False
    with Sandbox() as sandbox:
        for name in names:
            killed, total = run_target(name, sandbox)
            rows.append(f"| `{name}` | {killed} / {total} |")
            if args.gate:
                want = floor.get(name)
                if want is None or killed * want[1] < want[0] * total:
                    failed = True
                    print(f"GATE: {name} killed {killed} / {total}, table says {want}")
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
