"""Generic ILP branch-and-bound tests (the CPLEX-profile solver)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.encoding import encode_coloring
from repro.core.formula import Formula
from repro.graphs.generators import queens_graph
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.model import formula_to_ilp
from repro.sat.brute import brute_force_optimize, brute_force_solve
from repro.sat.result import SAT


def test_model_shapes():
    f = Formula(num_vars=3)
    f.add_clause([1, -2])
    f.add_pb([(2, 1), (1, 3)], "=", 2)
    f.set_objective([(1, 1), (1, -3)])
    model = formula_to_ilp(f)
    assert model.num_vars == 3
    assert model.row_count() == 3  # clause + two rows for the equality
    assert model.objective_offset == 1  # from the negative literal


def test_simple_optimum():
    f = Formula(num_vars=4)
    f.add_clause([1, 2])
    f.add_clause([3, 4])
    f.set_objective([(1, v) for v in range(1, 5)])
    result = BranchAndBoundSolver().optimize(f)
    assert result.is_optimal and result.best_value == 2


def test_infeasible():
    f = Formula(num_vars=1)
    f.add_clause([1])
    f.add_clause([-1])
    f.set_objective([(1, 1)])
    assert BranchAndBoundSolver().optimize(f).is_unsat


def test_decide():
    f = Formula(num_vars=2)
    f.add_exactly_one([1, 2])
    result = BranchAndBoundSolver().decide(f)
    assert result.is_sat
    assert f.evaluate(result.model)


def test_objective_required_for_optimize():
    f = Formula(num_vars=1)
    f.add_clause([1])
    with pytest.raises(ValueError):
        BranchAndBoundSolver().optimize(f)


def _queens5_at_6():
    # chi(queen5_5) is 5, the size of its largest clique.
    return encode_coloring(queens_graph(5, 5), 6).formula


def test_an_incumbent_at_the_lower_bound_is_optimal_at_once():
    formula = _queens5_at_6()
    bounded = BranchAndBoundSolver()
    result = bounded.optimize(formula, lower_bound=5)
    assert result.is_optimal and result.best_value == 5
    # Without the bound, ten times as many nodes find 5 but do not prove
    # it (the whole search takes 729).
    plain = BranchAndBoundSolver()
    cut = plain.optimize(
        formula, should_stop=lambda: plain.nodes_explored >= 10 * bounded.nodes_explored)
    assert cut.status == SAT and cut.best_value == 5


def test_an_upper_bound_keeps_the_models_at_its_value():
    # Nodes whose bound exceeds 5 are pruned before the first incumbent,
    # but not those that hold a 5-coloring.  Cut after 60 nodes: proving
    # the optimum takes hundreds more, and this is about the model.
    formula = _queens5_at_6()
    solver = BranchAndBoundSolver()
    result = solver.optimize(formula, upper_bound=5,
                             should_stop=lambda: solver.nodes_explored >= 60)
    assert result.best_value == 5 and formula.evaluate(result.best_model)


def test_the_lower_bound_is_on_the_objective_not_on_the_lp():
    # The negated objective literals add 3 to every value the LP sees,
    # and the first incumbent (value 2) is not the optimum (value 1).
    f = Formula(num_vars=3)
    f.add_pb([(1, 3), (3, 1)], "<=", 3)
    f.set_objective([(1, -1), (1, 2), (2, -3)])
    result = BranchAndBoundSolver().optimize(f, lower_bound=1)
    assert result.is_optimal and result.best_value == 1


@st.composite
def ilp_problem(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    f = Formula(num_vars=n)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        width = draw(st.integers(min_value=1, max_value=n))
        vs = draw(st.lists(st.integers(min_value=1, max_value=n),
                           min_size=width, max_size=width, unique=True))
        terms = [
            (draw(st.integers(min_value=-3, max_value=3)),
             v * draw(st.sampled_from([1, -1])))
            for v in vs
        ]
        f.add_pb(terms, draw(st.sampled_from([">=", "<=", "="])),
                 draw(st.integers(min_value=-2, max_value=4)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        f.add_clause([
            draw(st.integers(min_value=1, max_value=n)) * draw(st.sampled_from([1, -1]))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ])
    f.set_objective(
        [(draw(st.integers(min_value=1, max_value=3)),
          v * draw(st.sampled_from([1, -1])))
         for v in range(1, n + 1)]
    )
    return f


@settings(max_examples=40, deadline=None)
@given(ilp_problem())
def test_bb_matches_brute_force(formula):
    expected = brute_force_optimize(formula)
    actual = BranchAndBoundSolver().optimize(formula)
    assert actual.status == expected.status
    if actual.is_optimal:
        assert actual.best_value == expected.best_value
        assert formula.evaluate(actual.best_model)


@settings(max_examples=40, deadline=None)
@given(ilp_problem())
def test_bb_with_both_bounds_at_the_optimum_proves_it(formula):
    # Objectives with negated literals shift the LP's values by a
    # constant; the bounds are on the objective's own values.
    expected = brute_force_optimize(formula)
    if not expected.is_optimal:
        return
    value = expected.best_value
    actual = BranchAndBoundSolver().optimize(formula, upper_bound=value, lower_bound=value)
    assert actual.is_optimal and actual.best_value == value
    assert formula.evaluate(actual.best_model)


@settings(max_examples=25, deadline=None)
@given(ilp_problem())
def test_bb_decide_matches_brute_force(formula):
    expected = brute_force_solve(formula)
    actual = BranchAndBoundSolver().decide(formula)
    assert actual.status == expected.status
