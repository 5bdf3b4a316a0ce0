"""Self-test of the mutation harness in tests/mutants.py: three known mutants
of the trust path are each killed by a narrowed test selection, and the
mutant ids do not change from one generation to the next."""
import ast

import pytest

from mutants import TARGETS, Sandbox, apply, mutants, original_text, target_source

# name -> (target, operator, the source the edit replaces, the killing tests)
KNOWN = {
    "c0 in s2 -> c0 not in s2": (
        "verify.certificate_colors", "in-notin", "c0 in s2",
        "test_verify.py::test_certificate_colors_are_the_path_colors_in_order",
    ),
    "== g.n -> != g.n": (
        "domination.check_domination", "eq-ne", "len(dset.union(*[adj[v] for v in dset])) == g.n",
        "test_domination.py::test_check_domination_matches_plain_set_logic",
    ),
    "re-walk dropped": (
        "coloring.three_way_coloring", "and-or", "a[-2] in legs or b[-2] in legs or c[-2] in legs",
        "test_coloring.py::test_wheels_cover_case_one",
    ),
}


def _known(name):
    target, op, was, _ = KNOWN[name]
    source = target_source(target)
    (mutant,) = [
        m for m in mutants(target, source)
        if m.id.split(":")[1] == op and " ".join(original_text(source, m).split()) == was
    ]
    assert ast.dump(ast.parse(apply(source, mutant))) != ast.dump(ast.parse(source))
    return TARGETS[target].module, source, mutant


@pytest.fixture(scope="module")
def sandbox():
    with Sandbox() as box:
        yield box


def test_known_selections_pass_unmutated(sandbox):
    passed, _ = sandbox.run([tests for *_, tests in KNOWN.values()])
    assert passed


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_known_mutant_is_killed(sandbox, name):
    module, source, mutant = _known(name)
    sandbox.write(module, apply(source, mutant))
    try:
        passed, _ = sandbox.run([KNOWN[name][3]])
    finally:
        sandbox.write(module, source)
    assert not passed, mutant.id


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_mutant_ids_are_stable(target):
    source = target_source(target)
    first, second = mutants(target, source), mutants(target, source)
    assert [m.id for m in first] == [m.id for m in second]
    assert len({m.id for m in first}) == len(first) > 0
