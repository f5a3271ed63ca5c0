"""Unit tests for the named variable pool."""

import pytest

from repro.core.variables import VariablePool


def test_fresh_is_consecutive():
    pool = VariablePool()
    assert pool.fresh() == 1
    assert pool.fresh() == 2
    assert pool.num_vars == 2


def test_start_offset():
    pool = VariablePool(start=10)
    assert pool.fresh() == 11


def test_named_allocation_and_lookup():
    pool = VariablePool()
    x = pool.new("x", 1, 2)
    assert pool.lookup("x", 1, 2) == x


def test_duplicate_key_rejected():
    pool = VariablePool()
    pool.new("k")
    with pytest.raises(KeyError):
        pool.new("k")


def test_contains_and_len():
    pool = VariablePool()
    pool.new("a")
    pool.fresh()
    assert "a" in pool
    assert "b" not in pool
    assert len(pool) == 2


def test_single_element_key_unwrapped():
    pool = VariablePool()
    v = pool.new("solo")
    assert pool.lookup("solo") == v


def test_items_enumerates_named():
    pool = VariablePool()
    a = pool.new("a")
    pool.fresh()  # anonymous, not in items
    assert dict(pool.items()) == {"a": a}


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        VariablePool(start=-1)
