"""End-to-end simplification pipeline tests.

The pipeline stages (graph kernelization before encoding, CNF
simplification after encoding) must never change an answer — only how
fast it arrives.  These tests pin that invariant on the DIMACS-style
instance families the paper calls out as sparse (books, register
interference) plus the standard dense controls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BudgetedOptimize, ChromaticProblem, DecisionProblem, Pipeline
from repro.coloring.reduce import kernelize
from repro.coloring.sat_pipeline import chromatic_number_sat, sat_k_colorable
from repro.graphs.generators import (
    book_graph,
    interference_graph,
    mycielski_graph,
    queens_graph,
)
from repro.graphs.graph import Graph

SPARSE_INSTANCES = [
    ("book", lambda: book_graph(40, 90, seed=3)),
    ("register", lambda: interference_graph(30, 60, 4, seed=1)),
    ("myciel3", lambda: mycielski_graph(3)),
    ("two-triangles", lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
]

#: The 0-1 ILP chromatic-number flow with NU SBPs; kernelization and
#: simplification are on by default.
CHI = Pipeline().symmetry(sbp_kind="nu").solve(backend="pbs2", time_limit=60)


@pytest.mark.parametrize("name,make", SPARSE_INSTANCES)
def test_pipeline_preserves_chromatic_number(name, make):
    graph = make()
    raw = CHI.reduce(False).simplify(False).run(ChromaticProblem(graph))
    piped = CHI.run(ChromaticProblem(graph))
    assert piped.status == raw.status == "OPTIMAL"
    assert piped.num_colors == raw.num_colors
    assert graph.is_proper_coloring(piped.coloring)


def test_default_pipeline_engages_on_sparse_graph():
    graph = book_graph(40, 90, seed=3)
    result = CHI.run(ChromaticProblem(graph))
    assert result.provenance.config["reduce"] and result.provenance.config["simplify"]
    kernel = result.stage("reduce")
    assert kernel is not None
    # Sparse book graphs peel away entirely at the clique bound.
    assert kernel.details["peeled_vertices"] > 0
    assert kernel.details["kernel_vertices"] < graph.num_vertices


def test_preprocess_reports_simplification_on_dense_graph():
    result = (Pipeline().reduce(False).symmetry(sbp_kind="nu+sc")
              .solve(backend="pbs2", time_limit=60)
              .run(BudgetedOptimize(queens_graph(4, 4), 5)))
    simplify = result.stage("simplify")
    assert simplify is not None
    # The SC units must fold into the clause database.
    assert simplify.details["units_propagated"] >= 1
    assert simplify.details["clauses_after"] < simplify.details["clauses_before"]
    assert result.status == "OPTIMAL" and result.num_colors == 5


def test_reduced_unsat_budget():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    result = Pipeline().solve(backend="pbs2", time_limit=30).run(
        BudgetedOptimize(k4, 3))
    assert result.status == "UNSAT" and result.num_colors is None


def test_reduced_components_colored_independently():
    # Two disjoint K4s: the kernel splits, each component is solved on
    # its own, and colors are reused across components.
    edges = []
    for base in (0, 4):
        edges += [(base + i, base + j) for i in range(4) for j in range(i + 1, 4)]
    g = Graph.from_edges(8, edges)
    result = Pipeline().solve(backend="pbs2", time_limit=60).run(
        BudgetedOptimize(g, 5))
    assert result.status == "OPTIMAL"
    assert result.num_colors == 4
    assert g.is_proper_coloring(result.coloring)


@pytest.mark.parametrize("preprocess,reduce", [(True, False), (False, True), (True, True)])
def test_sat_pipeline_stage_combinations(preprocess, reduce):
    g = mycielski_graph(3)
    result = chromatic_number_sat(
        g, preprocess=preprocess, kernel=kernelize(g) if reduce else None,
        time_limit=60,
    )
    assert result.status == "OPTIMAL"
    assert result.chromatic_number == 4
    assert g.is_proper_coloring(result.coloring)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=4),
       st.data())
def test_sat_decision_agrees_across_pipeline(n, k, data):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                g.add_edge(u, v)
    baseline = sat_k_colorable(g, k, preprocess=False)[0]
    for preprocess, reduce in ((True, False), (True, True)):
        result = (Pipeline().reduce(reduce).simplify(preprocess)
                  .solve(backend="cdcl-incremental")
                  .run(DecisionProblem(g, k)))
        status, coloring = result.status, result.coloring
        assert status == baseline
        if status == "SAT":
            assert g.is_proper_coloring(coloring)
            assert max(coloring.values(), default=1) <= k
