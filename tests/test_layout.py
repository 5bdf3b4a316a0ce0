"""Package layout rules: every import sits at the top of its module, and no
module imports another module's private (underscore) names.  The benchmark
harness in bench/ names package functions by string and by attribute, and it
and scripts/ pass keywords to them, so the names and keywords they use are
checked here too, by reading their files."""
import ast
import importlib
import inspect
import pathlib

import pytest

import rainbow3

MODULES = sorted(pathlib.Path(rainbow3.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def _keyword_calls(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, function, keyword) of every keyword passed to a package
    function called as ``rb.f(...)`` or by a name imported from rainbow3."""
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rainbow3"
        for alias in node.names
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            name = func.attr if func.value.id == "rb" else None
        else:
            name = imported.get(func.id) if isinstance(func, ast.Name) else None
        if name is not None:
            calls += [(node.lineno, name, kw.arg) for kw in node.keywords]
    return calls


def _unknown_keywords(tree: ast.Module) -> list[str]:
    return [
        f"line {line}: {name}({kw}=...)"
        for line, name, kw in _keyword_calls(tree)
        if kw not in inspect.signature(getattr(rainbow3, name)).parameters
    ]


def test_keyword_check_catches_a_removed_parameter():
    source = "import rainbow3 as rb\nfrom rainbow3 import exact_rx3 as ex\n"
    source += "rb.exact_rx3(g, max_edges=3)\nex(g, max_edge=3)\nrb.is_3_rainbow(g, c, max_colors=9)\n"
    assert _unknown_keywords(ast.parse(source)) == [
        "line 4: exact_rx3(max_edge=...)",
        "line 5: is_3_rainbow(max_colors=...)",
    ]


@pytest.mark.parametrize("path", ["bench/workloads.py", "scripts/reproduce_bounds.py"])
def test_bench_and_script_keywords_are_parameters(path):
    tree = ast.parse((ROOT / path).read_text())
    assert _keyword_calls(tree) and _unknown_keywords(tree) == []


MAX_LINE = 99


def test_source_lines_fit_the_width():
    # wc -l measures size, so a line count must not drop by joining lines
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    long_lines = [
        f"{path.relative_to(ROOT)}:{i}"
        for path in sources
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert sources and long_lines == []
