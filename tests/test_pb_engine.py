"""PB engine tests: propagation, backtracking, and fuzz vs brute force."""

import hashlib

from fuzz_budget import fuzz_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.encoding import encode_coloring
from repro.core.formula import Formula
from repro.experiments.instances import get_instance
from repro.pb.engine import PBSolver
from repro.sat.brute import brute_force_solve
from repro.sat.preprocessing import simplify_formula
from repro.sbp.instance_independent import apply_sbp


def _solve(formula):
    solver = PBSolver()
    if not solver.add_formula(formula):
        return "UNSAT", None
    result = solver.solve()
    return result.status, result.model


def test_cardinality_at_least():
    f = Formula(num_vars=3)
    f.add_at_least([1, 2, 3], 2)
    f.add_clause([-1])
    status, model = _solve(f)
    assert status == "SAT" and model[2] and model[3]


def test_exactly_one_propagates():
    f = Formula(num_vars=3)
    f.add_exactly_one([1, 2, 3])
    f.add_clause([-2])
    f.add_clause([-3])
    status, model = _solve(f)
    assert status == "SAT" and model[1]


def test_weighted_constraint_propagation():
    # 3a + b + c >= 3 forces a once b is false.
    f = Formula(num_vars=3)
    f.add_pb([(3, 1), (1, 2), (1, 3)], ">=", 3)
    f.add_clause([-2])
    status, model = _solve(f)
    assert status == "SAT" and model[1]


def test_conflicting_pb_unsat():
    f = Formula(num_vars=2)
    f.add_at_least([1, 2], 2)
    f.add_at_most([1, 2], 1)
    assert _solve(f)[0] == "UNSAT"


def test_equality_constraint():
    f = Formula(num_vars=4)
    f.add_pb([(1, v) for v in range(1, 5)], "=", 2)
    status, model = _solve(f)
    assert status == "SAT"
    assert sum(model.values()) == 2


def test_unit_pb_becomes_clause():
    f = Formula(num_vars=1)
    f.add_pb([(5, 1)], ">=", 3)
    status, model = _solve(f)
    assert status == "SAT" and model[1]


def test_unsatisfiable_at_load():
    solver = PBSolver()
    assert solver.add_linear_ge([(1, 1), (1, 2)], 3) is False
    assert solver.solve().is_unsat


def test_tautology_skipped():
    solver = PBSolver()
    assert solver.add_linear_ge([(1, 1)], 0)
    assert solver.solve().is_sat


def test_incremental_tightening():
    # Mimics the optimizer: repeatedly add objective bounds.
    f = Formula(num_vars=4)
    f.add_at_least([1, 2, 3, 4], 1)
    solver = PBSolver()
    assert solver.add_formula(f)
    count = 4
    while True:
        result = solver.solve()
        if result.is_unsat:
            break
        count = sum(result.model.values())
        ok = solver.add_linear_ge([(-1, v) for v in range(1, 5)], -(count - 1))
        if not ok:
            break
    assert count == 1


@st.composite
def random_pb_formula(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    f = Formula(num_vars=n)
    num_pb = draw(st.integers(min_value=1, max_value=5))
    for _ in range(num_pb):
        width = draw(st.integers(min_value=1, max_value=n))
        vs = draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=width, max_size=width, unique=True,
            )
        )
        terms = [
            (draw(st.integers(min_value=-4, max_value=4)),
             v * draw(st.sampled_from([1, -1])))
            for v in vs
        ]
        relation = draw(st.sampled_from([">=", "<=", "="]))
        f.add_pb(terms, relation, draw(st.integers(min_value=-4, max_value=5)))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        width = draw(st.integers(min_value=1, max_value=3))
        f.add_clause(
            [
                draw(st.integers(min_value=1, max_value=n))
                * draw(st.sampled_from([1, -1]))
                for _ in range(width)
            ]
        )
    return f


@settings(max_examples=fuzz_examples(120), deadline=None)
@given(random_pb_formula())
def test_pb_engine_matches_brute_force(formula):
    expected = brute_force_solve(formula)
    status, model = _solve(formula)
    assert status == expected.status
    if status == "SAT":
        assert formula.evaluate(model)


# ------------------------------------------------------- pinned loaded state
# The formulas the 0-1 ILP flow hands the engine (encode at K=20, an SBP
# kind, simplify_formula), as in tests/test_optimizer.py's trajectory pins.
LOADED_PINNED = [(name, kind) for name in ("myciel4", "queen5_5", "jean", "huck")
                 for kind in ("nu+sc", "li")]
LOADED_DIGEST = "bfcd89387b1fb9d60f799e2a5c57b684385770af"


def _loaded_state(solver):
    """Everything the search reads of a freshly loaded solver."""
    index = {id(clause): i for i, clause in enumerate(solver.clauses)}
    lits = [v for v in range(1, solver.num_vars + 1)]
    lits += [-v for v in lits]
    return (
        solver.num_vars,
        [list(clause) for clause in solver.clauses],
        [[(index[id(clause)], blocker) for clause, blocker in solver.watches[lit]]
         for lit in lits],
        [(p.terms, p.degree, p.slack) for p in solver.pb_constraints],
        list(solver.trail),
    )


def test_loaded_state_is_pinned():
    """Clauses, watches, PB slack and the level-0 trail after loading the
    pb-k20 workload's formulas stay fixed: a loader change that moves a
    single watch or propagation fails here."""
    digest = hashlib.sha1()
    for name, kind in LOADED_PINNED:
        formula, _ = simplify_formula(
            apply_sbp(encode_coloring(get_instance(name).graph(), 20), kind).formula)
        solver = PBSolver()
        assert solver.add_formula(formula)
        digest.update(repr(_loaded_state(solver)).encode())
    assert digest.hexdigest() == LOADED_DIGEST
