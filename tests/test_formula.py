"""Unit tests for the Formula container."""

import pytest

from repro.core.formula import Formula, FormulaStats


def test_new_var_and_growth():
    f = Formula()
    v1 = f.new_var()
    v2 = f.new_var()
    assert (v1, v2) == (1, 2)
    assert f.num_vars == 2
    f.add_clause([10])
    assert f.num_vars == 10  # grows to cover mentioned variables


def test_add_clause_keeps_tautologies():
    f = Formula(num_vars=2)
    f.add_clause([1, 2])
    # Tautologies stay legal input (they are SAT).
    taut = f.add_clause([1, -1])
    assert taut == (1, -1)
    assert len(f.clauses) == 2


@pytest.mark.parametrize("literals", [[3, True], [3, 0], [3, 3.0], ["3"]])
def test_add_clause_rejects_non_literals(literals):
    # The types are checked before duplicates collapse: {3, 3.0} is {3}.
    f = Formula(num_vars=3)
    with pytest.raises(ValueError):
        f.add_clause(literals)
    assert f.clauses == [] and f.num_vars == 3


def test_add_clause_canonical():
    f = Formula(num_vars=3)
    clause = f.add_clause([3, 1, 3])
    assert clause == (1, 3)
    assert len(f.clauses) == 1


def test_empty_clause_rejected():
    f = Formula()
    with pytest.raises(ValueError):
        f.add_clause([])


def test_add_pb_and_helpers():
    f = Formula(num_vars=3)
    f.add_pb([(2, 1), (1, -2)], ">=", 1)
    f.add_exactly_one([1, 2, 3])
    f.add_at_most([1, 2], 1)
    f.add_at_least([2, 3], 1)
    assert f.stats() == FormulaStats(3, 0, 4)


def test_objective_and_value():
    f = Formula(num_vars=2)
    f.set_objective([(1, 1), (2, -2)])
    assert f.objective_value({1: True, 2: True}) == 1
    assert f.objective_value({1: True, 2: False}) == 3
    with pytest.raises(ValueError):
        f.set_objective([(1, 1)], sense="avg")


def test_evaluate_mixed():
    f = Formula(num_vars=2)
    f.add_clause([1, 2])
    f.add_pb([(1, 1), (1, 2)], "<=", 1)
    assert f.evaluate({1: True, 2: False})
    assert not f.evaluate({1: True, 2: True})  # violates the PB
    assert not f.evaluate({1: False, 2: False})  # violates the clause


def test_copy_is_independent():
    f = Formula(num_vars=1)
    f.add_clause([1])
    g = f.copy()
    g.add_clause([-1])
    assert len(f.clauses) == 1
    assert len(g.clauses) == 2
    assert g.num_vars == f.num_vars


def test_stats_addition():
    a = FormulaStats(1, 2, 3)
    b = FormulaStats(10, 20, 30)
    assert a + b == FormulaStats(11, 22, 33)


def test_repr_mentions_sizes():
    f = Formula(num_vars=2)
    f.add_clause([1, 2])
    assert "clauses=1" in repr(f)
