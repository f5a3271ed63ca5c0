"""Unit tests for the Formula container and the collector pause."""

import gc

import pytest
from fuzz_budget import fuzz_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collector import collector_paused
from repro.core.formula import Formula, FormulaStats
from repro.pb.engine import PBSolver
from repro.sat.cdcl import CDCLSolver


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


_literal = st.integers(min_value=1, max_value=6).flatmap(lambda v: st.sampled_from([v, -v]))
_clause = st.one_of(
    _literal.map(lambda l: [l]),
    st.tuples(_literal, _literal),
    _literal.map(lambda l: (l, -l)),
    _literal.map(lambda l: [l, l]),
    st.lists(_literal, min_size=3, max_size=6),
)


@st.composite
def _clause_batches(draw):
    """Units, binaries (``(x, -x)`` and ``(x, x)`` among them), long
    clauses, and some of them again."""
    batch = draw(st.lists(_clause, max_size=10))
    if batch:
        batch += draw(st.lists(st.sampled_from(batch), max_size=4))
    return draw(st.permutations(batch))


@settings(max_examples=fuzz_examples(200), deadline=None)
@given(_clause_batches(), st.integers(min_value=0, max_value=8),
       st.sampled_from([0, True, 1.0, None]), st.data())
def test_add_clauses_is_a_loop_of_add_clause(batch, start, bad, data):
    looped = Formula(num_vars=start)
    for clause in batch:
        looped.add_clause(clause)
    bulk = Formula(num_vars=start)
    bulk.add_clauses(batch)
    assert bulk.clauses == looped.clauses
    assert bulk.num_vars == looped.num_vars
    # One bad clause anywhere: add_clause's error, and nothing appended.
    if bad is None:
        spoiled = []
    else:
        lits = data.draw(st.lists(_literal, max_size=3))
        at = data.draw(st.integers(min_value=0, max_value=len(lits)))
        spoiled = lits[:at] + [bad] + lits[at:]
    at = data.draw(st.integers(min_value=0, max_value=len(batch)))
    with pytest.raises(ValueError) as expected:
        Formula(num_vars=start).add_clause(spoiled)
    with pytest.raises(ValueError) as raised:
        bulk.add_clauses(batch[:at] + [spoiled] + batch[at:])
    assert str(raised.value) == str(expected.value)
    assert bulk.clauses == looped.clauses
    assert bulk.num_vars == looped.num_vars


def _cnf():
    f = Formula()
    f.add_clauses([(1, 2), (-1, 3), (-2,)])
    return f


@pytest.mark.parametrize("collector_on", [True, False])
def test_loading_leaves_the_collector_as_it_found_it(collector_on):
    was = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        pb = Formula(num_vars=3)
        pb.add_exactly_one([1, 2, 3])
        assert CDCLSolver().add_formula(_cnf())
        assert PBSolver().add_formula(pb)
        assert gc.isenabled() is collector_on
        refuted = _cnf()
        refuted.add_clause([2])
        assert not PBSolver().add_formula(refuted)
        assert gc.isenabled() is collector_on
        with pytest.raises(ValueError):
            CDCLSolver().add_formula(pb)  # PB constraints: CNF-only solver
        solver = PBSolver()
        assert solver.add_formula(_cnf())
        solver.trail_lim.append(0)  # mid-search: loading is refused
        with pytest.raises(RuntimeError):
            solver.add_formula(pb)
        assert gc.isenabled() is collector_on
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is collector_on
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("inside")
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was else gc.disable)()
