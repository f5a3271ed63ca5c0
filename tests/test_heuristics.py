"""Coloring heuristic tests: greedy, Welsh-Powell, DSATUR."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.coloring_heuristics import (
    dsatur,
    greedy_coloring,
    welsh_powell,
)
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.graphs.graph import Graph


def _bipartite(n_left, n_right):
    g = Graph(n_left + n_right)
    for u in range(n_left):
        for v in range(n_right):
            g.add_edge(u, n_left + v)
    return g


def test_greedy_proper_and_color_count():
    g = queens_graph(4, 4)
    coloring, colors = greedy_coloring(g)
    assert g.is_proper_coloring(coloring)
    assert colors == max(coloring.values()) + 1


def test_greedy_custom_order_validated():
    g = Graph(3)
    with pytest.raises(ValueError):
        greedy_coloring(g, order=[0, 0, 1])


def test_welsh_powell_proper():
    g = mycielski_graph(4)
    coloring, colors = welsh_powell(g)
    assert g.is_proper_coloring(coloring)
    assert colors >= 5  # chi(myciel4) = 5


def test_dsatur_empty_graph():
    coloring, colors = dsatur(Graph(0))
    assert coloring == {} and colors == 0


def test_dsatur_bipartite_optimal():
    # DSATUR is exact on bipartite graphs (Brelaz 1979).
    coloring, colors = dsatur(_bipartite(5, 7))
    assert colors == 2
    assert _bipartite(5, 7).is_proper_coloring(coloring)


def test_dsatur_clique_exact():
    g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    _, colors = dsatur(g)
    assert colors == 4


def test_dsatur_queens():
    coloring, colors = dsatur(queens_graph(5, 5))
    assert queens_graph(5, 5).is_proper_coloring(coloring)
    assert 5 <= colors <= 8


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.data())
def test_all_heuristics_proper_on_random_graphs(n, data):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                g.add_edge(u, v)
    for coloring, colors in (greedy_coloring(g), welsh_powell(g), dsatur(g)):
        assert g.is_proper_coloring(coloring)
        assert colors <= g.max_degree() + 1  # greedy bound
