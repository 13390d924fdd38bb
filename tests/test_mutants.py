"""The mutant table of ``mutants.py`` still fits the code and the tests.

Each old text must occur exactly once in its file under ``src/``, as
``mutants.apply`` requires, and each named test must still be defined, so
that an edit to the library or a renamed test fails here and not only
when someone next runs the mutants.  The mutants themselves are not run.
"""

import ast

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS + EQUIVALENT, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (SRC / mutant.path).read_text().count(mutant.old) == 1


def defines(path, names) -> bool:
    """Does the module at ``path`` define the class or function path ``names``?"""
    body = ast.parse(path.read_text()).body
    for name in names:
        node = next((n for n in body if getattr(n, "name", None) == name), None)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests and not mutant.reason
    for test in mutant.tests:
        path, *names = test.split("[")[0].split("::")
        assert defines(ROOT / path, names), test


def test_equivalent_mutants_give_a_reason():
    assert all(m.reason and not m.tests for m in EQUIVALENT)
    assert len({m.name for m in MUTANTS + EQUIVALENT}) == len(MUTANTS + EQUIVALENT)
