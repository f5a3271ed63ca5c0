"""Coloring encoding tests: sizes per the paper, decode, normalization."""

import pytest
from fuzz_budget import fuzz_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.encoding import (
    decode_coloring,
    encode_coloring,
    normalize_coloring,
)
from repro.graphs.generators import queens_graph
from repro.graphs.graph import Graph
from repro.pb.engine import PBSolver


def test_formula_sizes_match_paper():
    # Paper Section 2.5: n*K + K vars, K*(m + n + 1) clauses, n PB.
    g = queens_graph(4, 4)
    n, m, k = g.num_vertices, g.num_edges, 5
    enc = encode_coloring(g, k)
    stats = enc.formula.stats()
    assert stats.num_vars == n * k + k
    assert stats.num_clauses == k * (m + n + 1)
    assert stats.num_pb == n
    assert enc.formula.objective is not None
    assert len(enc.formula.objective) == k


def test_variable_maps():
    g = Graph.from_edges(2, [(0, 1)])
    enc = encode_coloring(g, 3)
    xs = {enc.x(v, k) for v in range(2) for k in range(1, 4)}
    ys = {enc.y(k) for k in range(1, 4)}
    assert len(xs) == 6 and len(ys) == 3
    assert not xs & ys


def test_invalid_color_count():
    with pytest.raises(ValueError):
        encode_coloring(Graph(1), 0)


def test_decode_roundtrip():
    g = queens_graph(3, 3)
    enc = encode_coloring(g, 5)
    solver = PBSolver()
    assert solver.add_formula(enc.formula)
    result = solver.solve()
    assert result.is_sat
    coloring = decode_coloring(enc, result.model)
    assert g.is_proper_coloring(coloring)
    assert len(set(coloring.values())) <= 5


def test_decode_rejects_bad_model():
    g = Graph.from_edges(2, [(0, 1)])
    enc = encode_coloring(g, 2)
    empty_model = {v: False for v in range(1, enc.formula.num_vars + 1)}
    with pytest.raises(ValueError):
        decode_coloring(enc, empty_model)
    double = dict(empty_model)
    double[enc.x(0, 1)] = True
    double[enc.x(0, 2)] = True
    with pytest.raises(ValueError):
        decode_coloring(enc, double)


def test_normalize_coloring():
    coloring = {0: 7, 1: 3, 2: 7}
    norm = normalize_coloring(coloring)
    assert norm == {0: 1, 1: 2, 2: 1}
    assert set(norm.values()) == {1, 2}


def test_copy_independence():
    g = Graph.from_edges(2, [(0, 1)])
    enc = encode_coloring(g, 2)
    dup = enc.copy()
    dup.formula.add_clause([enc.y(1)])
    assert len(enc.formula.clauses) + 1 == len(dup.formula.clauses)


@settings(max_examples=fuzz_examples(20), deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4), st.data())
def test_encoding_solutions_are_proper_colorings(n, k, data):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                g.add_edge(u, v)
    enc = encode_coloring(g, k)
    solver = PBSolver()
    ok = solver.add_formula(enc.formula)
    result = solver.solve() if ok else None
    if result is not None and result.is_sat:
        coloring = decode_coloring(enc, result.model)
        assert g.is_proper_coloring(coloring)
    else:
        # UNSAT must mean the graph genuinely needs more than k colors.
        import itertools

        colorable = any(
            all(a[u] != a[v] for u, v in g.edges())
            for a in itertools.product(range(k), repeat=n)
        )
        assert not colorable
