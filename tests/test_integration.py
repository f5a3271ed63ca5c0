"""Cross-module integration tests.

These exercise the full pipeline end to end and cross-check independent
implementations against each other: the 0-1 ILP pipeline vs the DSATUR
branch-and-bound baseline vs known chromatic numbers, on real (small)
benchmark instances, with every SBP configuration.
"""

import pytest

from repro.api import BudgetedOptimize, Pipeline
from repro.coloring import exact_chromatic_number
from repro.coloring.encoding import encode_coloring
from repro.experiments.instances import get_instance
from repro.graphs.coloring_heuristics import dsatur
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.pb.presets import solve_optimize
from repro.sbp.instance_independent import SBP_KINDS, apply_sbp
from repro.symmetry.detect import detect_symmetries

KNOWN_CHI = {"myciel3": 4, "myciel4": 5, "queen5_5": 5, "queen6_6": 7}

#: The paper's 0-1 ILP flow on the whole graph (no kernelization).
ILP = Pipeline().reduce(False)


@pytest.mark.parametrize("name,chi", sorted(KNOWN_CHI.items()))
def test_pipelines_agree_on_known_instances(name, chi):
    graph = get_instance(name).graph()
    ilp = (ILP.symmetry(sbp_kind="nu+sc")
           .solve(backend="pbs2", time_limit=120)
           .run(BudgetedOptimize(graph, chi + 2)))
    assert ilp.status == "OPTIMAL" and ilp.num_colors == chi
    bb = exact_chromatic_number(graph, time_limit=120)
    assert bb.optimal and bb.chromatic_number == chi
    _, heuristic = dsatur(graph)
    assert heuristic >= chi


def test_solvers_cross_agree_on_queen4_4():
    graph = queens_graph(4, 4)
    results = {
        solver: ILP.solve(backend=solver, time_limit=60).run(
            BudgetedOptimize(graph, 6))
        for solver in ("pbs2", "galena", "pueblo", "cplex-bb")
    }
    values = {r.num_colors for r in results.values()}
    assert values == {5}
    assert all(r.status == "OPTIMAL" for r in results.values())


@pytest.mark.parametrize("sbp", SBP_KINDS)
@pytest.mark.parametrize("inst_dep", [False, True])
def test_sbp_grid_consistent_on_myciel3(sbp, inst_dep):
    graph = mycielski_graph(3)
    result = (ILP.symmetry(sbp_kind=sbp, instance_dependent=inst_dep)
              .solve(backend="pbs2", time_limit=120)
              .run(BudgetedOptimize(graph, 5)))
    assert result.status == "OPTIMAL"
    assert result.num_colors == 4
    assert graph.is_proper_coloring(result.coloring)


def test_symmetry_counts_shrink_with_sbps():
    """Paper Table 2 trend: NU < none, LI = 1, SC ~ none."""
    graph = queens_graph(4, 4)
    orders = {}
    for kind in ("none", "nu", "li", "sc"):
        enc = apply_sbp(encode_coloring(graph, 5), kind)
        orders[kind] = detect_symmetries(enc.formula).order
    assert orders["li"] == 1
    assert orders["nu"] < orders["none"]
    assert orders["none"] / orders["sc"] <= orders["none"] / 2 or orders["sc"] <= orders["none"]
    # Color symmetry alone contributes K! = 120; vertex syms multiply it.
    assert orders["none"] % 120 == 0


def test_unsat_instances_unsat_for_every_solver():
    graph = mycielski_graph(4)  # chi = 5
    for solver in ("pbs2", "pueblo", "cplex-bb"):
        result = ILP.solve(backend=solver, time_limit=60).run(
            BudgetedOptimize(graph, 4))
        assert result.status == "UNSAT", solver


def test_optimum_invariant_under_generator_sbps():
    """Adding lex-leader SBPs from detected generators never changes the
    optimum, for every instance-independent base construction."""
    graph = queens_graph(4, 4)
    base = ILP.solve(backend="pbs2", time_limit=120)
    for kind in ("none", "nu", "nu+sc"):
        plain = base.symmetry(sbp_kind=kind).run(BudgetedOptimize(graph, 5))
        broken = base.symmetry(sbp_kind=kind, instance_dependent=True).run(
            BudgetedOptimize(graph, 5))
        assert plain.status == broken.status == "OPTIMAL"
        assert plain.num_colors == broken.num_colors


def test_pb_vs_ilp_on_encoded_formula():
    graph = mycielski_graph(3)
    formula = encode_coloring(graph, 4).formula
    pb = solve_optimize(formula.copy(), preset="pbs2")
    from repro.ilp import BranchAndBoundSolver

    ilp = BranchAndBoundSolver().optimize(formula.copy())
    assert pb.best_value == ilp.best_value == 4
