"""Unit + property tests for CNF clauses: the canonical form that
``Formula.add_clause`` gives a clause, and ``Formula.evaluate`` over a
one-clause formula."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.formula import Formula

lits = st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0)


def _clause(literals):
    return Formula().add_clause(literals)


def _one_clause(literals):
    formula = Formula()
    formula.add_clause(literals)
    return formula


def test_canonicalization_dedup_and_order():
    assert _clause([2, 1, 2]) == (1, 2)
    assert _clause([-1, 1]) == (1, -1)  # var order, pos before neg
    assert _clause([3, -1, 2, 1]) == (1, -1, 2, 3)  # tautology among others


def test_evaluate():
    formula = _one_clause([1, -2])
    assert formula.evaluate({1: True, 2: True})
    assert formula.evaluate({1: False, 2: False})
    assert not formula.evaluate({1: False, 2: True})


def test_rejects_zero_literal():
    with pytest.raises(ValueError):
        _clause([0])


@pytest.mark.parametrize("literals", [[1, True], [2, 2.0], ["3"], [True], [1, 0, 1]])
def test_rejects_non_int_literals_before_deduplicating(literals):
    # {1, True} and {2, 2.0} are {1} and {2} as sets, so the literals are
    # checked as given, not after duplicates collapse.
    with pytest.raises(ValueError, match="not a literal"):
        _clause(literals)


@given(st.lists(lits, min_size=1, max_size=6))
def test_canonical_form_is_idempotent(literals):
    once = _clause(literals)
    assert _clause(once) == once


@given(st.lists(lits, min_size=1, max_size=6), st.randoms())
def test_order_invariance(literals, rng):
    shuffled = list(literals)
    rng.shuffle(shuffled)
    assert _clause(literals) == _clause(shuffled)


@given(st.lists(lits, min_size=1, max_size=6))
def test_evaluate_matches_semantics(literals):
    formula = _one_clause(literals)
    (clause,) = formula.clauses
    if len(set(map(abs, clause))) < len(clause):
        return  # a tautology holds under every assignment
    assignment = {abs(l): (l < 0) for l in literals}  # falsify everything
    assert not formula.evaluate(assignment)
    flipped = dict(assignment)
    first = clause[0]
    flipped[abs(first)] = first > 0
    assert formula.evaluate(flipped)
