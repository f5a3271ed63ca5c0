"""Graph ADT tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs.graph import Graph


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_basic_counts():
    g = triangle()
    assert g.num_vertices == 3
    assert g.num_edges == 3
    assert g.degree(0) == 2
    assert g.max_degree() == 2


def test_add_edge_dedup():
    g = Graph(2)
    assert g.add_edge(0, 1)
    assert not g.add_edge(1, 0)
    assert g.num_edges == 1


def test_self_loop_rejected():
    g = Graph(1)
    with pytest.raises(ValueError):
        g.add_edge(0, 0)


def test_out_of_range_rejected():
    g = Graph(2)
    with pytest.raises(IndexError):
        g.add_edge(0, 5)


def test_edges_iteration_ordered():
    g = triangle()
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert all(u < v for u, v in g.edges())


def test_add_vertex():
    g = Graph(1)
    v = g.add_vertex()
    assert v == 1
    g.add_edge(0, 1)
    assert g.has_edge(0, 1)


def test_density():
    assert triangle().density() == 1.0
    assert Graph(5).density() == 0.0


def test_copy_independent():
    g = triangle()
    h = g.copy()
    h.add_vertex()
    assert g.num_vertices == 3
    assert h.num_vertices == 4


def test_subgraph():
    g = triangle()
    g.add_vertex()
    g.add_edge(2, 3)
    sub = g.subgraph([1, 2, 3])
    assert sub.num_vertices == 3
    assert sorted(sub.edges()) == [(0, 1), (1, 2)]


def test_subgraph_duplicate_rejected():
    with pytest.raises(ValueError):
        triangle().subgraph([0, 0])


def test_relabel_and_automorphism():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # path
    reversed_path = [3, 2, 1, 0]
    assert g.relabel(reversed_path) == g
    assert g.is_automorphism(reversed_path)
    assert not g.is_automorphism([1, 0, 2, 3])  # breaks adjacency
    assert not g.is_automorphism([0, 0, 1, 2])  # not a permutation


def test_relabel_requires_permutation():
    with pytest.raises(ValueError):
        triangle().relabel([0, 1, 1])


def test_is_proper_coloring():
    g = triangle()
    assert g.is_proper_coloring({0: 1, 1: 2, 2: 3})
    assert not g.is_proper_coloring({0: 1, 1: 1, 2: 2})
    assert not g.is_proper_coloring({0: 1, 1: 2})  # missing vertex


@given(st.integers(min_value=0, max_value=8), st.data())
def test_edge_count_consistency(n, data):
    g = Graph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    for u, v in chosen:
        g.add_edge(u, v)
    assert g.num_edges == len(set(chosen))
    assert g.num_edges == sum(g.degree(v) for v in g.vertices()) // 2
    assert g.num_edges == len(list(g.edges()))
