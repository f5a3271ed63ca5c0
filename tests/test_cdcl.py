"""CDCL solver tests: units, assumptions, and fuzz vs brute force."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formula import Formula
from repro.sat.brute import brute_force_solve
from repro.sat.cdcl import CDCLSolver, solve_formula
from repro.sat.luby import luby


def test_trivial_sat():
    f = Formula(num_vars=1)
    f.add_clause([1])
    result = solve_formula(f)
    assert result.is_sat and result.model[1] is True


def test_trivial_unsat():
    solver = CDCLSolver()
    solver.add_clause([1])
    assert solver.add_clause([-1]) is False
    assert solver.solve().is_unsat


def test_implication_chain():
    f = Formula(num_vars=5)
    for i in range(1, 5):
        f.add_clause([-i, i + 1])
    f.add_clause([1])
    result = solve_formula(f)
    assert result.is_sat
    assert all(result.model[v] for v in range(1, 6))


def test_all_binary_combinations_unsat():
    f = Formula(num_vars=2)
    for c in ([1, 2], [-1, 2], [1, -2], [-1, -2]):
        f.add_clause(c)
    assert solve_formula(f).is_unsat


def test_tautology_ignored():
    solver = CDCLSolver()
    assert solver.add_clause([1, -1])
    assert solver.solve().is_sat


def test_assumptions():
    f = Formula(num_vars=2)
    f.add_clause([1, 2])
    assert solve_formula(f, assumptions=[-1]).model[2] is True
    assert solve_formula(f, assumptions=[-1, -2]).is_unsat
    # Assumptions don't persist: still SAT without them.
    assert solve_formula(f).is_sat


def test_incremental_reuse():
    solver = CDCLSolver()
    solver.add_clause([1, 2])
    assert solver.solve(assumptions=[-1]).is_sat
    solver.add_clause([-2])
    result = solver.solve()
    assert result.is_sat and result.model[1] is True
    solver.add_clause([-1])
    assert solver.solve().is_unsat


def _php(pigeons, holes):
    f = Formula()
    x = {(p, h): f.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        f.add_clause([x[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                f.add_clause([-x[p1, h], -x[p2, h]])
    return f


def test_pigeonhole_unsat():
    result = solve_formula(_php(6, 5))
    assert result.is_unsat
    assert result.stats.conflicts > 0


def test_pigeonhole_sat():
    result = solve_formula(_php(5, 5))
    assert result.is_sat


def test_add_clause_mid_search_rejected():
    solver = CDCLSolver()
    solver.add_clause([1, 2])
    solver.trail_lim.append(0)  # simulate being mid-search
    with pytest.raises(RuntimeError):
        solver.add_clause([2, 3])
    solver.trail_lim.pop()


def test_luby_prefix():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@st.composite
def random_cnf(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=24))
    f = Formula(num_vars=n)
    for _ in range(m):
        width = draw(st.integers(min_value=1, max_value=3))
        lits = [
            draw(st.integers(min_value=1, max_value=n))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        f.add_clause(lits)
    return f


@settings(max_examples=120, deadline=None)
@given(random_cnf())
def test_cdcl_matches_brute_force(formula):
    expected = brute_force_solve(formula)
    actual = solve_formula(formula)
    assert actual.status == expected.status
    if actual.is_sat:
        assert formula.evaluate(actual.model)


def test_model_covers_all_variables():
    f = Formula(num_vars=4)
    f.add_clause([1])
    model = solve_formula(f).model
    assert set(model) == {1, 2, 3, 4}
