"""Round-trip tests for DIMACS CNF and OPB serialization."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.formula import Formula
from repro.core.io_opb import (
    formula_to_string,
    read_dimacs_cnf,
    read_opb,
    write_dimacs_cnf,
    write_opb,
)

lits = st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0)


def _roundtrip_cnf(formula):
    buffer = io.StringIO()
    write_dimacs_cnf(formula, buffer)
    buffer.seek(0)
    return read_dimacs_cnf(buffer)


def _roundtrip_opb(formula):
    buffer = io.StringIO()
    write_opb(formula, buffer)
    buffer.seek(0)
    return read_opb(buffer)


def test_cnf_roundtrip_simple():
    f = Formula(num_vars=3)
    f.add_clause([1, -2])
    f.add_clause([3])
    g = _roundtrip_cnf(f)
    assert g.num_vars == 3
    assert set(g.clauses) == set(f.clauses)


def test_cnf_refuses_pb():
    f = Formula(num_vars=2)
    f.add_pb([(1, 1), (1, 2)], ">=", 1)
    with pytest.raises(ValueError):
        write_dimacs_cnf(f, io.StringIO())


def test_cnf_parser_tolerates_comments_and_split_lines():
    text = "c hello\np cnf 3 2\n1 -2 0 3\n0\n"
    g = read_dimacs_cnf(io.StringIO(text))
    assert len(g.clauses) == 2
    assert g.num_vars == 3


def test_opb_roundtrip_mixed():
    f = Formula(num_vars=4)
    f.add_clause([1, -2])
    f.add_pb([(3, 1), (-2, -3)], "<=", 2)
    f.add_exactly_one([2, 3, 4])
    f.set_objective([(1, 2), (5, -4)])
    g = _roundtrip_opb(f)
    assert g.num_vars == f.num_vars
    assert set(g.clauses) == set(f.clauses)
    assert set(g.pb_constraints) == set(f.pb_constraints)
    assert g.objective == f.objective
    assert g.objective_sense == "min"


@given(st.lists(st.lists(lits, min_size=1, max_size=4), min_size=1, max_size=6))
def test_cnf_roundtrip_preserves_clauses(clause_lists):
    f = Formula()
    kept = []
    for c in clause_lists:
        kept.append(f.add_clause(c))
    g = _roundtrip_cnf(f)
    assert list(g.clauses) == kept


def test_formula_to_string_formats():
    f = Formula(num_vars=1)
    f.add_clause([1])
    assert "p cnf" in formula_to_string(f, "cnf")
    assert ">= 1" in formula_to_string(f, "opb")
    with pytest.raises(ValueError):
        formula_to_string(f, "xml")


def test_opb_malformed_token():
    with pytest.raises(ValueError):
        read_opb(io.StringIO("+1 z3 >= 1 ;\n"))


@pytest.mark.parametrize("line", ["min: 1 x0 1 x1 ;", "1 x0 1 x1 >= 1 ;"])
def test_opb_variable_zero_rejected(line):
    # x0 names no variable, in the objective as in a constraint.
    with pytest.raises(ValueError, match="not a literal: 0"):
        read_opb(io.StringIO(line + "\n"))
