"""Graph analysis tests: components, bipartiteness, chromatic bounds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.analysis import connected_components, is_bipartite
from repro.graphs.cliques import clique_lower_bound
from repro.graphs.coloring_heuristics import dsatur
from repro.graphs.graph import Graph


def test_connected_components():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    assert connected_components(g) == [[0, 1, 2], [3], [4, 5]]
    assert connected_components(Graph(0)) == []


def test_is_bipartite():
    even_cycle = Graph.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
    ok, sides = is_bipartite(even_cycle)
    assert ok
    assert all(sides[u] != sides[v] for u, v in even_cycle.edges())
    odd_cycle = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_bipartite(odd_cycle) == (False, None)
    assert is_bipartite(Graph(3))[0]  # edgeless graphs are bipartite


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_bounds_bracket_truth_on_random_graphs(n, data):
    # The two bounds every flow starts from: the greedy clique below chi
    # and the DSATUR coloring above it.
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                g.add_edge(u, v)
    from repro.coloring.exact_dsatur import exact_chromatic_number

    chi = exact_chromatic_number(g).chromatic_number
    coloring, upper = dsatur(g)
    assert clique_lower_bound(g) <= chi <= upper
    assert len(set(coloring.values())) == upper
