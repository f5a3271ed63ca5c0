"""CDCL solver tests: units, assumptions, and fuzz vs brute force."""


import pytest
from fuzz_budget import fuzz_examples
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.formula import Formula
from repro.pb.engine import PBSolver
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


@pytest.mark.parametrize("solver_class", [CDCLSolver, PBSolver])
@pytest.mark.parametrize("bad", [0, True, False, 2.0, "1", None])
def test_assumptions_and_clause_literals_must_be_nonzero_ints(solver_class, bad):
    # In a literal-indexed table, 0 and -0 would share one slot; a bool
    # would pass for variable 1 and a float would index nothing.
    solver = solver_class()
    assert solver.add_clause([1, 2])
    with pytest.raises(ValueError, match="not a literal"):
        solver.solve(assumptions=[-1, bad])
    with pytest.raises(ValueError, match="not a literal"):
        solver.add_clause([-1, bad])
    # Nothing was half-added: the solver still answers as before.
    assert solver.solve(assumptions=[-1]).model[2] is True
    assert solver.solve(assumptions=[-1, -2]).failed_assumptions == [-1, -2]


def test_value_of_rejects_variables_the_solver_does_not_hold():
    # Past the table, a negative literal would read a positive slot.
    solver = CDCLSolver(num_vars=2)
    solver.add_clause([2])
    assert solver.value_of(2) is True and solver.value_of(-2) is False
    assert solver.value_of(-1) is None
    for lit in (3, -3, 0):
        with pytest.raises(ValueError):
            solver.value_of(lit)


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


@settings(max_examples=fuzz_examples(120), deadline=None)
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


@st.composite
def growing_batches(draw):
    """Two to four batches of clauses, PB constraints and assumptions.

    Each batch may use variables the earlier ones did not, and the last
    reaches past twice the first batch's variables, so a solver that
    sized its tables for the first batch re-lays them out after it has
    learned clauses and saved phases.
    """
    count = draw(st.integers(min_value=2, max_value=4))
    n = first = draw(st.integers(min_value=3, max_value=5))
    batches = []
    for b in range(count):
        if b:
            n = draw(st.integers(min_value=n, max_value=n + 2))
        if b == count - 1:
            n = max(n, 2 * first + 1)
        lit = st.integers(min_value=1, max_value=n).flatmap(lambda v: st.sampled_from([v, -v]))
        if b == 0:
            # Random 3-SAT near its threshold: the search runs into
            # conflicts and learns before the tables grow.
            clauses = draw(st.lists(st.lists(lit, min_size=3, max_size=3),
                                    min_size=2 * n, max_size=4 * n))
        else:
            clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3), max_size=n))
        pbs = draw(st.lists(st.tuples(
            st.lists(st.tuples(st.integers(min_value=1, max_value=3), lit),
                     min_size=1, max_size=4),
            st.sampled_from([">=", "<=", "="]),
            st.integers(min_value=0, max_value=4)), max_size=1))
        assumptions = draw(st.lists(lit, max_size=4))
        batches.append((n, clauses, pbs, assumptions))
    return batches


def _formula_with_units(n, clauses, pbs, units=()):
    f = Formula(num_vars=n)
    for clause in clauses + [[lit] for lit in units]:
        f.add_clause(clause)
    for terms, relation, bound in pbs:
        f.add_pb(terms, relation, bound)
    return f


@pytest.mark.parametrize("solver_class", [CDCLSolver, PBSolver])
@settings(max_examples=fuzz_examples(60), deadline=None)
@given(batches=growing_batches())
# Learns the clause (1 2) at level 2 with phases saved, then grows from
# 3 to 7 variables and answers under an assumption on the newest one.
@example(batches=[
    (3, [[1, 2, 3], [1, 2, -3]], [], []),
    (7, [[4, 5, -6], [-1, 7]], [], [-7, 6]),
])
def test_answers_hold_while_the_solver_grows(solver_class, batches):
    solver = solver_class()
    loaded = True
    clauses, pbs = [], []
    for n, batch_clauses, batch_pbs, assumptions in batches:
        if solver_class is not PBSolver:
            batch_pbs = []
        clauses += batch_clauses
        pbs += batch_pbs
        batch = _formula_with_units(n, batch_clauses, batch_pbs)
        loaded = loaded and solver.add_formula(batch)
        result = solver.solve(assumptions=assumptions)
        with_assumptions = _formula_with_units(n, clauses, pbs, assumptions)
        assert result.status == brute_force_solve(with_assumptions).status
        if result.is_sat:
            assert loaded and with_assumptions.evaluate(result.model)
        else:
            failed = result.failed_assumptions
            assert set(failed) <= set(assumptions)
            assert brute_force_solve(_formula_with_units(n, clauses, pbs, failed)).is_unsat
