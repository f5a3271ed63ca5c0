"""Unit + property tests for CNF clauses."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.clause import Clause

lits = st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0)


def test_canonicalization_dedup_and_order():
    assert Clause([2, 1, 2]).literals == (1, 2)
    assert Clause([-1, 1]).literals == (1, -1)  # var order, pos before neg
    assert Clause([3, -1, 2, 1]).literals == (1, -1, 2, 3)  # tautology among others


def test_equality_and_hash():
    assert Clause([3, 1]) == Clause([1, 3])
    assert hash(Clause([3, 1])) == hash(Clause([1, 3]))
    assert Clause([1]) != Clause([2])


def test_is_unit_and_empty():
    assert Clause([5]).is_unit


def test_tautology():
    assert Clause([1, -1]).is_tautology
    assert not Clause([1, 2]).is_tautology


def test_evaluate():
    clause = Clause([1, -2])
    assert clause.evaluate({1: True, 2: True})
    assert clause.evaluate({1: False, 2: False})
    assert not clause.evaluate({1: False, 2: True})


def test_rejects_zero_literal():
    with pytest.raises(ValueError):
        Clause([0])


@pytest.mark.parametrize("literals", [[1, True], [2, 2.0], ["3"], [True], [1, 0, 1]])
def test_rejects_non_int_literals_before_deduplicating(literals):
    # {1, True} and {2, 2.0} are {1} and {2} as sets, so the literals are
    # checked as given, not after duplicates collapse.
    with pytest.raises(ValueError, match="not a literal"):
        Clause(literals)


@given(st.lists(lits, min_size=1, max_size=6))
def test_canonical_form_is_idempotent(literals):
    once = Clause(literals)
    twice = Clause(once.literals)
    assert once == twice


@given(st.lists(lits, min_size=1, max_size=6), st.randoms())
def test_order_invariance(literals, rng):
    shuffled = list(literals)
    rng.shuffle(shuffled)
    assert Clause(literals) == Clause(shuffled)


@given(st.lists(lits, min_size=1, max_size=6))
def test_evaluate_matches_semantics(literals):
    clause = Clause(literals)
    if clause.is_tautology:
        return
    assignment = {abs(l): (l < 0) for l in literals}  # falsify everything
    assert not clause.evaluate(assignment)
    flipped = dict(assignment)
    first = clause.literals[0]
    flipped[abs(first)] = first > 0
    assert clause.evaluate(flipped)
