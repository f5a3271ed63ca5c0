"""Kernelization tests: peeling, extension, the reduce stage's policy.

The reduce stage (``repro.coloring.reduce.kernelize``) runs in front of
every backend that kernelizes; the property at the bottom holds its
answers equal to the unreduced runs on random graphs.
"""

import pytest
from fuzz_budget import fuzz_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DecisionProblem, Pipeline
from repro.coloring.reduce import (
    extend_coloring,
    kernelize,
    lift,
    peel_low_degree,
)
from repro.coloring.sat_pipeline import sat_k_colorable
from repro.graphs.generators import book_graph, queens_graph
from repro.graphs.graph import Graph


def decide(graph, k, backend="cdcl-incremental", reduce=True):
    return (Pipeline().reduce(reduce).solve(backend=backend, time_limit=60)
            .run(DecisionProblem(graph, k)))


def test_peel_tree_vanishes():
    # Every vertex of a tree has degree < 2 at some peeling stage.
    tree = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    kernel = peel_low_degree(tree, 2)
    assert kernel.graph.num_vertices == 0
    coloring = extend_coloring(kernel, {})
    assert tree.is_proper_coloring(coloring)
    assert len(set(coloring.values())) <= 2


def test_peel_keeps_core():
    # Triangle + pendant: peeling at k=2 drops only the pendant
    # (triangle vertices keep degree >= 2).
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    kernel = peel_low_degree(g, 2)
    assert kernel.graph.num_vertices == 3
    assert kernel.kernel_to_original == [0, 1, 2]


def test_peel_nothing_when_k_small():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    kernel = peel_low_degree(k4, 3)
    assert kernel.graph.num_vertices == 4  # all degrees are 3 >= 3


def test_extension_is_proper():
    g = queens_graph(4, 4)
    kernel = peel_low_degree(g, 6)
    status, sub_coloring = sat_k_colorable(kernel.graph, 6)
    assert status == "SAT"
    coloring = extend_coloring(kernel, sub_coloring)
    assert g.is_proper_coloring(coloring)
    assert max(coloring.values()) <= 6


def test_solve_with_reduction_sat():
    # A decision with the reduce stage on: sparse, so heavy peeling.
    g = book_graph(40, 90, seed=3)
    result = decide(g, 8)
    assert result.status == "SAT"
    assert g.is_proper_coloring(result.coloring)
    assert result.stage("reduce").details["kernel_vertices"] < g.num_vertices


def test_solve_with_reduction_unsat():
    # K4 at 3 colors: the clique bound settles it before any solver.
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    result = decide(k4, 3)
    assert result.status == "UNSAT"
    assert result.coloring is None
    assert [s.name for s in result.stages] == ["reduce"]
    assert result.stages[0].details == {"clique_bound": 4}
    assert result.solvers_created == 0


def test_components_solved_independently():
    # Two disjoint K_{3,3}: degeneracy 3 >= k=3 so nothing peels, and
    # the kernel splits into two components (chi = 2 <= 3: SAT).
    edges = []
    for base in (0, 6):
        for u in range(3):
            for v in range(3, 6):
                edges.append((base + u, base + v))
    g = Graph.from_edges(12, edges)
    kernel = kernelize(g, 3, decision=True)
    assert kernel.components == [list(range(6)), list(range(6, 12))]
    for backend in ("cdcl-incremental", "pb-pbs2"):
        result = decide(g, 3, backend)
        assert result.status == "SAT"
        assert result.stage("reduce").details["components_solved"] == 2
        assert result.stage("reduce").details["kernel_vertices"] == 12
        assert g.is_proper_coloring(result.coloring)


# A hub joined to a 5-cycle: clique bound 3, every degree >= 3.
WHEEL = Graph.from_edges(
    6, [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)]
)


@pytest.mark.parametrize("budget,decision,threshold,kernel_vertices", [
    (None, False, 3, 6),   # chromatic: peel at the clique bound
    (4, False, 3, 6),      # budgeted: still the clique bound
    (4, True, 4, 0),       # decision: peel at K, the cycle goes
], ids=["chromatic", "budgeted", "decision"])
def test_kernelize_policy(budget, decision, threshold, kernel_vertices):
    kernel = kernelize(WHEEL, budget, decision)
    assert kernel.clique_bound == 3
    assert kernel.k == threshold
    assert not kernel.infeasible
    assert kernel.graph.num_vertices == kernel_vertices
    assert kernel.components == ([list(range(6))] if kernel_vertices else [])
    coloring = lift(kernel, [(c, {i: i + 1 for i in range(len(c))})
                             for c in kernel.components])
    assert WHEEL.is_proper_coloring(coloring)
    # Below the clique bound the stage settles the run: no peel at all.
    infeasible = kernelize(WHEEL, 2, decision)
    assert infeasible.infeasible and infeasible.components == []


@settings(max_examples=fuzz_examples(30), deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4), st.data())
def test_reduction_equivalent_to_direct(n, k, data):
    g = Graph(n)
    # A planted clique on the first vertices: above k, the clique bound
    # settles the decision in the reduce stage.
    clique = data.draw(st.integers(min_value=0, max_value=n))
    for u in range(n):
        for v in range(u + 1, n):
            if v < clique or data.draw(st.booleans()):
                g.add_edge(u, v)
    direct_status, _ = sat_k_colorable(g, k)
    kernel = kernelize(g, k, decision=True)
    if kernel.infeasible:
        assert direct_status == "UNSAT"
    else:
        answers = [sat_k_colorable(kernel.graph.subgraph(c), k)
                   for c in kernel.components]
        if all(status == "SAT" for status, _ in answers):
            assert direct_status == "SAT"
            coloring = lift(kernel, [(c, sub) for c, (_, sub) in
                                     zip(kernel.components, answers)])
            assert g.is_proper_coloring(coloring)
            assert max(coloring.values(), default=1) <= k
        else:
            assert direct_status == "UNSAT"
    for backend in ("cdcl-incremental", "pb-pbs2"):
        on, off = decide(g, k, backend), decide(g, k, backend, reduce=False)
        assert on.status == off.status == direct_status
        if kernel.infeasible:
            assert [s.name for s in on.stages] == ["reduce"]
            assert on.solvers_created == 0
        for result in (on, off):
            if result.status == "SAT":
                assert g.is_proper_coloring(result.coloring)
                assert max(result.coloring.values(), default=1) <= k
