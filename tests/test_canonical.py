"""Canonical labeling and isomorphism tests."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import mycielski_graph, queens_graph
from repro.graphs.graph import Graph
from repro.symmetry.canonical import canonical_form, canonical_labeling


def _random_graph(n, seed):
    rng = random.Random(seed)
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                g.add_edge(u, v)
    return g


def _shuffled(graph, seed):
    rng = random.Random(seed)
    perm = list(range(graph.num_vertices))
    rng.shuffle(perm)
    return graph.relabel(perm)


def test_canonical_form_invariant_under_relabeling():
    for seed in range(10):
        g = _random_graph(7, seed)
        h = _shuffled(g, seed + 100)
        assert canonical_form(g) == canonical_form(h), seed


def test_non_isomorphic_distinguished():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_form(path) != canonical_form(star)


def test_are_isomorphic_positive():
    g = queens_graph(3, 4)
    assert canonical_form(g) == canonical_form(_shuffled(g, 42))
    m3 = mycielski_graph(3)
    assert canonical_form(m3) == canonical_form(_shuffled(m3, 7))


def test_colored_isomorphism():
    # Swapping the colors of an edge's ends is a color-preserving
    # relabeling, so the certificate does not change.
    g = Graph.from_edges(2, [(0, 1)])
    assert canonical_form(g, [0, 1]) == canonical_form(g, [1, 0])


def test_colors_distinguish_orientation():
    # Path a-b-c colored (red, blue, blue) vs (blue, blue, red) share a
    # certificate; vs (blue, red, blue) they do not.
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert canonical_form(path, [0, 1, 1]) == canonical_form(path, [1, 1, 0])
    assert canonical_form(path, [0, 1, 1]) != canonical_form(path, [1, 0, 1])


def test_empty_graph():
    assert canonical_labeling(Graph(0)) == []
    assert canonical_form(Graph(0)) == ()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_canonical_invariance_property(n, data):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                g.add_edge(u, v)
    perm = data.draw(st.permutations(range(n)))
    h = g.relabel(list(perm))
    assert canonical_form(g) == canonical_form(h)
