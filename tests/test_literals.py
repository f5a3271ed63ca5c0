"""Unit tests for literal encoding helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.literals import (
    check_literal,
    index_lit,
    lit_index,
    var_of,
)

literals = st.integers(min_value=-500, max_value=500).filter(lambda x: x != 0)


def test_var_of():
    assert var_of(3) == 3
    assert var_of(-3) == 3


def test_lit_index_layout():
    assert lit_index(1) == 0
    assert lit_index(-1) == 1
    assert lit_index(2) == 2
    assert lit_index(-2) == 3


@given(literals)
def test_index_roundtrip(lit):
    assert index_lit(lit_index(lit)) == lit


@given(literals)
def test_index_pairs_variables(lit):
    # A literal and its complement occupy adjacent indices (xor 1).
    assert lit_index(lit) ^ 1 == lit_index(-lit)


def test_check_literal_rejects_zero():
    with pytest.raises(ValueError):
        check_literal(0)


def test_check_literal_rejects_bool():
    with pytest.raises(ValueError):
        check_literal(True)


def test_check_literal_passes_through():
    assert check_literal(-7) == -7
