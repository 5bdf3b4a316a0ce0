"""Package layout rules: every import sits at the top of its module, and no
module imports another module's private (underscore) names."""
import ast
import pathlib

import pytest

import rainbow3

MODULES = sorted(pathlib.Path(rainbow3.__file__).parent.glob("*.py"))


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
