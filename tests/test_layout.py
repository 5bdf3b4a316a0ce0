"""Package layout rules: every import sits at the top of its module, and no
module imports another module's private (underscore) names.  The benchmark
harness in bench/ names package functions by string and by attribute, so the
names it uses are checked here too, by reading its files."""
import ast
import importlib
import inspect
import pathlib

import pytest

import rainbow3

MODULES = sorted(pathlib.Path(rainbow3.__file__).parent.glob("*.py"))
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _layout_problems(tree: ast.Module) -> list[str]:
    problems = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            problems += [
                f"line {node.lineno}: import inside {func.name}()"
                for node in ast.walk(func)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    for node in ast.walk(tree):
        package_import = isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "rainbow3"
        )
        if package_import:
            problems += [
                f"line {node.lineno}: private import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return problems


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_top_level_and_public(path):
    assert _layout_problems(ast.parse(path.read_text())) == []


def test_layout_check_catches_both_faults():
    source = "from .x import _helper\n\ndef f():\n    from .y import g\n    return g\n"
    assert _layout_problems(ast.parse(source)) == [
        "line 4: import inside f()",
        "line 1: private import _helper",
    ]


def test_bench_traced_names_are_package_functions():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    missing = []
    for dotted in traced:
        layer, name = dotted.split(".")
        module = importlib.import_module(f"rainbow3.{layer}")
        if not inspect.isfunction(getattr(module, name, None)):
            missing.append(dotted)
    assert traced and missing == []


def test_bench_workload_attributes_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "rb"
    }
    assert used and sorted(n for n in used if not hasattr(rainbow3, n)) == []
