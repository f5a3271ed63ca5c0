"""Unit + property tests for PB constraints and normalization."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pbconstraint import (
    PBConstraint,
    at_least_k,
    at_most_k,
    exactly_one,
    normalize_terms,
)

lits = st.integers(min_value=-5, max_value=5).filter(lambda x: x != 0)
terms_strategy = st.lists(
    st.tuples(st.integers(min_value=-6, max_value=6), lits), min_size=1, max_size=5
)


def _eval_terms(terms, bound, assignment):
    total = sum(c for c, l in terms if ((l > 0) == assignment[abs(l)]))
    return total >= bound


@given(terms_strategy, st.integers(min_value=-10, max_value=10))
def test_normalization_preserves_semantics(terms, bound):
    norm, degree = normalize_terms(terms, bound)
    variables = sorted({abs(l) for _, l in terms})
    for values in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, values))
        assert _eval_terms(terms, bound, assignment) == _eval_terms(
            norm, degree, assignment
        ), (terms, bound, norm, degree, assignment)


@given(terms_strategy, st.integers(min_value=-10, max_value=10))
def test_normalized_coefficients_positive(terms, bound):
    norm, _ = normalize_terms(terms, bound)
    assert all(c > 0 for c, _ in norm)
    # No variable appears twice.
    vs = [abs(l) for _, l in norm]
    assert len(vs) == len(set(vs))


def test_normalize_merges_duplicates():
    norm, degree = normalize_terms([(2, 1), (3, 1)], 4)
    assert norm == [(4, 1)]  # saturated at the degree
    assert degree == 4


def test_normalize_cancels_complements():
    # 2*x + 3*~x >= 4  ==  2 + ~x >= 4  ==  ~x >= 2 : unsat after norm
    norm, degree = normalize_terms([(2, 1), (3, -1)], 4)
    assert (norm, degree) == ([(1, -1)], 2)  # 1 < 2: no assignment reaches it


def test_pb_relations_to_geq():
    pb = PBConstraint([(1, 1), (1, 2)], "=", 1)
    geqs = pb.to_geq()
    assert len(geqs) == 2
    assert PBConstraint([(1, 1)], ">=", 1).to_geq()[0].degree == 1


def test_pb_evaluate_each_relation():
    assignment = {1: True, 2: False}
    assert PBConstraint([(1, 1), (1, 2)], ">=", 1).evaluate(assignment)
    assert PBConstraint([(1, 1), (1, 2)], "<=", 1).evaluate(assignment)
    assert PBConstraint([(1, 1), (1, 2)], "=", 1).evaluate(assignment)
    assert not PBConstraint([(1, 1), (1, 2)], "=", 2).evaluate(assignment)


def test_invalid_relation_rejected():
    with pytest.raises(ValueError):
        PBConstraint([(1, 1)], ">", 0)


def test_helpers():
    assert exactly_one([1, 2, 3]).relation == "="
    assert at_most_k([1, 2], 1).relation == "<="
    assert at_least_k([1, 2], 1).relation == ">="


def test_variables_sorted():
    pb = PBConstraint([(1, 4), (2, -2)], ">=", 1)
    assert pb.variables() == (2, 4)
