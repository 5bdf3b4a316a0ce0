"""Package layout rules: every import sits at the top of its module, no
module imports another module's private (underscore) names, and every
module-level private name is used in its own module.  The benchmark
harness in bench/ names package functions by string and by attribute, and it
and scripts/ pass keywords to them, so the names and keywords they use are
checked here too, by reading their files.  So are the README tour, the
exported names no program reads, and the exported exception classes the
command line would let through as a traceback."""
import ast
import importlib
import inspect
import pathlib

import pytest

import rainbow3
import rainbow3.cli

MODULES = sorted(pathlib.Path(rainbow3.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = sorted((ROOT / "tests").glob("*.py"))
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


def _unused_private_names(tree: ast.Module) -> list[str]:
    """Module-level _private functions, classes and constants that nothing
    else in the module reads."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [
        name
        for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


@pytest.mark.parametrize(
    "path", MODULES + TESTS, ids=lambda p: p.name if p in MODULES else f"tests/{p.name}"
)
def test_private_names_are_used_in_their_module(path):
    assert _unused_private_names(ast.parse(path.read_text())) == []


def test_private_name_check_catches_a_leftover_helper():
    source = "_A = 1\n_B: int = 2\n\nclass _C:\n    pass\n\n"
    source += "def _median_join():\n    return _A\n\ndef _joins():\n    _B = 3\n\n_joins()\n"
    assert _unused_private_names(ast.parse(source)) == ["_B", "_C", "_median_join"]


def test_private_name_check_catches_a_superseded_test_helper():
    # a parametrize list read only by a decorator counts as read
    source = "_CASES = [1]\n\ndef _old_trace(g):\n    return g\n\n"
    source += "def _search_trace(g):\n    return g\n\n"
    source += "@pytest.mark.parametrize('g', _CASES)\ndef test_x(g):\n    _search_trace(g)\n"
    assert _unused_private_names(ast.parse(source)) == ["_old_trace"]


def _unread_conftest_functions(conftest: ast.Module, tests: list) -> list[str]:
    """Public top-level functions of conftest that no other conftest function
    reads and no test module reads or takes as a fixture argument."""
    read = _names_read(conftest)
    for tree in tests:
        read |= _names_read(tree) | {a.arg for a in ast.walk(tree) if isinstance(a, ast.arg)}
    return sorted(
        node.name
        for node in conftest.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in read
    )


def test_every_conftest_function_is_read():
    conftest = ROOT / "tests" / "conftest.py"
    tests = [ast.parse(path.read_text()) for path in TESTS if path != conftest]
    assert _unread_conftest_functions(ast.parse(conftest.read_text()), tests) == []


def test_conftest_check_catches_a_superseded_oracle():
    conftest = "def oracle_greedy(g):\n    return oracle_greedy(g)\n\n"
    conftest += "def oracle_heap(g):\n    return g\n\ndef helper(g):\n    return inner(g)\n\n"
    conftest += "def inner(g):\n    return g\n\n@pytest.fixture\ndef example():\n    return 1\n"
    tests = "from conftest import helper, oracle_heap\n\n"
    tests += "def test_x(example):\n    assert helper(example) == oracle_heap(example)\n"
    got = _unread_conftest_functions(ast.parse(conftest), [ast.parse(tests)])
    assert got == ["oracle_greedy"]


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


def _work_writes(tree: ast.Module) -> list[str]:
    """Writes to ``work[...]`` outside ``_spend``.  Tests count the units a
    verifier is charged by wrapping ``_spend``, so a charge made anywhere
    else would go uncounted."""
    spend = [node for node in tree.body if getattr(node, "name", None) == "_spend"]
    inside = {id(node) for func in spend for node in ast.walk(func)}
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        problems += [
            f"line {node.lineno}: work changed outside _spend"
            for t in targets
            if isinstance(t, ast.Subscript) and getattr(t.value, "id", None) == "work"
            and id(node) not in inside
        ]
    return problems


def test_verifier_work_changes_only_in_spend():
    path = pathlib.Path(rainbow3.__file__).parent / "verify.py"
    assert _work_writes(ast.parse(path.read_text())) == []


def test_work_check_catches_an_inlined_charge():
    source = "def _spend(work, units):\n    work[0] -= units\n\n"
    source += "def _joins(aa, work):\n    work[0] -= len(aa)\n    return aa\n"
    assert _work_writes(ast.parse(source)) == ["line 5: work changed outside _spend"]


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


# The modules that may read each limit: a limit read anywhere else is a
# second policy for what it bounds.
LIMIT_READERS = {
    "CDS_EXACT_LIMIT": {"domination.py"},
    "ROUTE_EXACT_LIMIT": {"domination.py"},
    "EXACT_KMAX": {"verify.py", "cli.py"},
    "EXACT_MAX_EDGES": {"verify.py", "cli.py"},
}


def _limit_reads(path: pathlib.Path) -> set[str]:
    """The limit names that a module names, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names & LIMIT_READERS.keys()


def test_limits_are_read_only_where_they_apply():
    stray = [
        f"{path.name} reads {name}"
        for path in MODULES
        for name in sorted(_limit_reads(path))
        if path.name not in LIMIT_READERS[name]
    ]
    assert stray == []


# Exported names that no program reads yet, each with the ROADMAP item that
# gives it a caller.
UNREAD_EXPORTS: dict[str, str] = {}
EXPORTS = rainbow3.__all__
PROGRAMS = (
    [path for path in MODULES if path.name != "__init__.py"]
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted(BENCH.glob("*.py"))
)


def _names_read(tree: ast.Module) -> set[str]:
    """Names and attributes a module reads, leaving out what a top-level
    function or class reads of its own name."""
    read = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                read.add(name)
    return read


def _unread_exports(exported, trees) -> list[str]:
    read = set().union(*map(_names_read, trees))
    return sorted(name for name in exported if name not in read)


def test_every_export_is_read_by_a_program():
    trees = [ast.parse(path.read_text()) for path in PROGRAMS]
    assert _unread_exports(EXPORTS, trees) == sorted(UNREAD_EXPORTS)


def test_no_module_is_exported():
    assert [n for n in EXPORTS if inspect.ismodule(getattr(rainbow3, n))] == []


def _uncovered_errors(exported, covered) -> list[str]:
    """Exported exception classes that are no subclass of a ``covered``
    class, other than ColoringInternalError, which reports a library bug."""
    return sorted(
        cls.__name__
        for cls in exported
        if isinstance(cls, type) and issubclass(cls, BaseException)
        and cls is not rainbow3.ColoringInternalError and not issubclass(cls, covered)
    )


def test_every_exported_error_is_a_cli_usage_error():
    exported = [getattr(rainbow3, n) for n in EXPORTS]
    assert _uncovered_errors(exported, rainbow3.cli._USAGE_ERRORS) == []


def test_error_check_catches_an_uncovered_class():
    class StrayError(RuntimeError):
        pass

    class NarrowGraphError(rainbow3.GraphError):
        pass

    exported = [StrayError, NarrowGraphError, rainbow3.ColoringInternalError, rainbow3.Graph]
    assert _uncovered_errors(exported, rainbow3.cli._USAGE_ERRORS) == ["StrayError"]


def test_export_check_catches_an_uncalled_name():
    source = "def helper():\n    return helper()\n\ndef caller():\n    return rb.attr + plain\n"
    exported = ["helper", "caller", "attr", "plain"]
    assert _unread_exports(exported, [ast.parse(source)]) == ["caller", "helper"]


def _tour_problems(readme: str) -> list[str]:
    """Backticked names of the README tour that their row's module lacks,
    and exports the tour does not list."""
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    problems, listed = [], set()
    for line in tour.splitlines():
        if not line.startswith("| `rainbow3."):
            continue
        dotted, *names = line.split("`")[1::2]
        module = importlib.import_module(dotted)
        problems += [f"{dotted} has no {name}" for name in names if not hasattr(module, name)]
        listed.update(names)
    return problems + [f"{name} is not listed" for name in EXPORTS if name not in listed]


def test_readme_tour_lists_every_export_and_nothing_else():
    assert _tour_problems((ROOT / "README.md").read_text()) == []


def test_tour_check_catches_a_stale_name():
    readme = "## Library tour\n\n| `rainbow3.bounds` | `bounds_report`, `bound_b` |\n\n## Next\n"
    problems = _tour_problems(readme)
    assert problems[0] == "rainbow3.bounds has no bound_b"
    assert "BoundsReport is not listed" in problems
