"""Coloring verification helper tests."""

import pytest

from repro.coloring.verify import check_proper
from repro.graphs.graph import Graph

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_check_proper_accepts_valid():
    check_proper(TRIANGLE, {0: 1, 1: 2, 2: 3})


def test_check_proper_rejects_monochromatic_edge():
    with pytest.raises(ValueError, match="monochromatic"):
        check_proper(TRIANGLE, {0: 1, 1: 1, 2: 2})


def test_check_proper_rejects_uncolored():
    with pytest.raises(ValueError, match="uncolored"):
        check_proper(TRIANGLE, {0: 1, 1: 2})
