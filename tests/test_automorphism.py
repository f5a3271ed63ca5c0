"""Automorphism search tests against known groups and brute force."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import mycielski_graph, queens_graph
from repro.graphs.graph import Graph
from repro.symmetry.automorphism import find_automorphisms
from repro.symmetry.group import PermutationGroup


def group_order(graph, colors=None):
    result = find_automorphisms(graph, colors=colors)
    assert result.complete
    for gen in result.generators:
        assert graph.is_automorphism(list(gen.image))
    if not result.generators:
        return 1
    return PermutationGroup(result.generators, degree=graph.num_vertices).order()


def brute_order(graph, colors=None):
    n = graph.num_vertices
    count = 0
    for perm in itertools.permutations(range(n)):
        if colors is not None and any(colors[v] != colors[perm[v]] for v in range(n)):
            continue
        if graph.is_automorphism(list(perm)):
            count += 1
    return count


def test_cycle_graphs_dihedral():
    for n in (3, 4, 5, 6):
        g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        assert group_order(g) == 2 * n


def test_complete_and_empty():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert group_order(k4) == 24
    assert group_order(Graph(4)) == 24
    assert group_order(Graph(0)) == 1


def test_path_graph():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert group_order(g) == 2


def test_petersen_graph():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    g = Graph.from_edges(10, edges)
    assert group_order(g) == 120


def test_queens_board_symmetries():
    # Square boards admit the dihedral group of the square.
    assert group_order(queens_graph(4, 4)) == 8
    # Rectangular boards only flips: identity, h, v, 180-rotation.
    assert group_order(queens_graph(3, 4)) == 4


def test_mycielski_grotzsch():
    # myciel3 (the Grotzsch-family graph) has automorphism group D5.
    assert group_order(mycielski_graph(3)) == 10


def test_colors_restrict_automorphisms():
    g = Graph.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])  # C4: order 8
    assert group_order(g) == 8
    # Distinguishing one vertex leaves only the flip fixing it.
    assert group_order(g, colors=[1, 0, 0, 0]) == 2
    assert group_order(g, colors=[1, 2, 3, 4]) == 1


def test_node_limit_marks_incomplete():
    g = Graph(8)  # S_8: search tree bigger than 3 nodes
    result = find_automorphisms(g, node_limit=3)
    assert not result.complete


def test_a_stop_unwinds_the_whole_search():
    # The predicate is polled once per node; once it fires, no open
    # level enters another sibling, so it is never polled again.
    polls = []

    def stop():
        polls.append(len(polls) >= 3)
        return polls[-1]

    result = find_automorphisms(Graph(8), should_stop=stop)
    assert polls == [False, False, False, True]
    assert result.nodes_explored == 3
    assert not result.complete


def test_disjoint_triangles_swap():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    # 3! per triangle, times the swap of the two triangles: 6*6*2.
    assert group_order(g) == 72


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_matches_brute_force_on_random_graphs(n, data):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                g.add_edge(u, v)
    assert group_order(g) == brute_order(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_matches_brute_force_with_colors(n, data):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                g.add_edge(u, v)
    colors = [data.draw(st.integers(min_value=0, max_value=1)) for _ in range(n)]
    assert group_order(g, colors=colors) == brute_order(g, colors=colors)
