"""Variable allocation: a variable is a plain id, ``Formula.num_vars`` the last one."""

import pytest

from repro.core.formula import Formula


def test_fresh_is_consecutive():
    f = Formula()
    assert f.new_var() == 1
    assert f.new_var() == 2
    assert f.num_vars == 2
    f.ensure_var(5)
    assert f.new_var() == 6


def test_start_offset():
    f = Formula(num_vars=10)
    assert f.new_var() == 11
    f.ensure_var(3)  # never shrinks
    assert f.num_vars == 11


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        Formula(num_vars=-1)
