"""High-level solve pipeline tests: all solvers, SBPs, agreement.

Budgeted runs use the paper's 0-1 ILP flow on the whole graph (no
kernelization); chromatic-number runs add NU SBPs and kernelize.
"""

import pytest

from repro.api import BudgetedOptimize, ChromaticProblem, Pipeline
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.graphs.graph import Graph

TRIANGLE_PLUS = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], name="fig1")

#: The 0-1 ILP flow on the whole graph, as the paper runs it.
ILP = Pipeline().reduce(False)


@pytest.mark.parametrize("solver", ["pbs2", "galena", "pueblo", "cplex-bb"])
def test_all_solvers_agree_on_figure1(solver):
    result = ILP.solve(backend=solver, time_limit=30).run(
        BudgetedOptimize(TRIANGLE_PLUS, 4))
    assert result.status == "OPTIMAL"
    assert result.num_colors == 3
    assert TRIANGLE_PLUS.is_proper_coloring(result.coloring)


@pytest.mark.parametrize("sbp", ["none", "nu", "ca", "li", "sc", "nu+sc"])
def test_all_sbps_agree_on_myciel3(sbp):
    g = mycielski_graph(3)
    result = (ILP.symmetry(sbp_kind=sbp).solve(backend="pbs2", time_limit=60)
              .run(BudgetedOptimize(g, 5)))
    assert result.status == "OPTIMAL" and result.num_colors == 4


def test_instance_dependent_sbps_sound():
    g = queens_graph(4, 4)
    pipeline = ILP.solve(backend="pbs2", time_limit=60)
    base = pipeline.run(BudgetedOptimize(g, 6))
    with_sbps = pipeline.symmetry(instance_dependent=True).run(
        BudgetedOptimize(g, 6))
    assert base.status == with_sbps.status == "OPTIMAL"
    assert base.num_colors == with_sbps.num_colors == 5
    assert with_sbps.detection is not None
    assert with_sbps.detection.num_generators > 0


def test_detection_cache_reused():
    g = queens_graph(4, 4)
    pipeline = ILP.symmetry(instance_dependent=True).solve(
        backend="pbs2", time_limit=60)
    cache = {}
    pipeline.run(BudgetedOptimize(g, 5), detection_cache=cache)
    assert len(cache) == 1
    report = next(iter(cache.values()))
    pipeline.run(BudgetedOptimize(g, 5), detection_cache=cache)
    assert next(iter(cache.values())) is report


def test_unsat_when_budget_too_small():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    result = ILP.solve(backend="pbs2", time_limit=30).run(BudgetedOptimize(k4, 3))
    assert result.status == "UNSAT"
    assert result.num_colors is None


def test_unknown_solver_rejected():
    with pytest.raises(ValueError):
        ILP.solve(backend="cplex")


def test_find_chromatic_number_defaults():
    result = (Pipeline().symmetry(sbp_kind="nu").solve(backend="pbs2", time_limit=60)
              .run(ChromaticProblem(mycielski_graph(3))))
    assert result.status == "OPTIMAL"
    assert result.num_colors == 4


def test_find_chromatic_number_empty_graph():
    result = (Pipeline().symmetry(sbp_kind="nu").solve(backend="pbs2")
              .run(ChromaticProblem(Graph(0))))
    assert result.num_colors == 0


def test_timeout_reports_unknown_or_sat():
    g = queens_graph(6, 6)
    result = ILP.solve(backend="pbs2", time_limit=0.05).run(BudgetedOptimize(g, 9))
    # Pipeline.run reports an optimization run's unproved SAT answer as
    # a degraded FEASIBLE with a verified coloring.
    assert result.status in ("UNKNOWN", "FEASIBLE", "OPTIMAL")
    if result.status == "FEASIBLE":
        assert result.degraded and g.is_proper_coloring(result.coloring)


def test_symmetry_detection_after_simplification_same_answers():
    # Regression for the pipeline reorder: symmetry detection now runs
    # on the *simplified* formula.  Chromatic numbers must be identical
    # with and without preprocessing, and with and without
    # instance-dependent SBPs, across representative instances.
    cases = [(mycielski_graph(3), 4), (queens_graph(4, 4), 5)]
    for graph, chi in cases:
        for preprocess in (True, False):
            result = (ILP.symmetry(instance_dependent=True).simplify(preprocess)
                      .solve(backend="pbs2", time_limit=60)
                      .run(BudgetedOptimize(graph, chi + 1)))
            assert result.status == "OPTIMAL", (graph.name, preprocess)
            assert result.num_colors == chi, (graph.name, preprocess)
            assert result.detection is not None


def test_detection_on_simplified_formula_still_finds_symmetries():
    # The simplified queens encoding keeps its color symmetry; the
    # detector must still report generators after the reorder.
    g = queens_graph(4, 4)
    result = (ILP.symmetry(instance_dependent=True).simplify(True)
              .solve(backend="pbs2", time_limit=60)
              .run(BudgetedOptimize(g, 6)))
    assert result.detection is not None
    assert result.detection.num_generators > 0


def test_binary_solver_profiles_incremental_matches_fresh():
    # The pueblo preset uses the binary optimization strategy; the
    # persistent-solver bisection must agree with fresh-solver probes.
    g = queens_graph(4, 4)
    pueblo = ILP.solve(backend="pueblo", time_limit=60)
    inc = pueblo.solve(incremental=True).run(BudgetedOptimize(g, 6))
    fresh = pueblo.solve(incremental=False).run(BudgetedOptimize(g, 6))
    assert inc.status == fresh.status == "OPTIMAL"
    assert inc.num_colors == fresh.num_colors == 5
