"""The repro.api surface: problems, configs, backends, pipelines, results.

Covers the API-redesign contract:

* problem value objects validate eagerly;
* every stage config rejects bad names with a ``ValueError`` naming the
  registered choices (never a deep ``KeyError``);
* the backend registry resolves names and aliases, and plugging in a
  new backend requires no call-site changes;
* pipelines are immutable builders, the stages run in one fixed order,
  every result carries per-stage stats and provenance, and every
  coloring a backend returns is checked;
* a color budget or cap below the chromatic number is UNSAT, never
  silently loosened (``max_colors=0`` included).
"""

import os
import random
import subprocess
import sys
from dataclasses import asdict

import pytest

from repro.api import (
    Backend,
    BudgetedOptimize,
    ChromaticProblem,
    DecisionProblem,
    Pipeline,
    Result,
    SolveConfig,
    SymmetryConfig,
    available_backends,
    get_backend,
    register_backend,
    solve_problem,
)
from repro.api.backends import _REGISTRY
from repro.coloring.encoding import encode_coloring
from repro.coloring.reduce import kernelize
from repro.coloring.verify import is_proper
from repro.experiments.instances import get_instance
from repro.graphs.generators import book_graph, mycielski_graph, queens_graph
from repro.graphs.graph import Graph, disjoint_union
from repro.obs import scoped_registry
from repro.sat.preprocessing import simplify_formula
from repro.sbp.instance_independent import apply_sbp

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

TRIANGLE_PLUS = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], name="fig1")


# ------------------------------------------------------------------ problems
def test_problem_validation():
    with pytest.raises(ValueError, match="non-negative"):
        DecisionProblem(TRIANGLE_PLUS, -1)
    with pytest.raises(ValueError, match="non-negative"):
        BudgetedOptimize(TRIANGLE_PLUS, -2)
    with pytest.raises(ValueError, match="non-negative"):
        ChromaticProblem(TRIANGLE_PLUS, max_colors=-1)
    with pytest.raises(ValueError, match="Graph"):
        ChromaticProblem("not a graph")
    # Zero budgets are valid *input* (they mean infeasible, not error).
    assert BudgetedOptimize(TRIANGLE_PLUS, 0).max_colors == 0
    assert DecisionProblem(TRIANGLE_PLUS, 0).k == 0


# ------------------------------------------------------------------- configs
def test_bad_names_raise_value_error_with_choices():
    with pytest.raises(ValueError) as exc:
        SolveConfig(backend="minisat")
    assert "pb-pbs2" in str(exc.value) and "cdcl-incremental" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        SymmetryConfig(sbp_kind="zz")
    assert "nu+sc" in str(exc.value)
    with pytest.raises(ValueError, match="linear"):
        SolveConfig(strategy="ternary")


# ------------------------------------------------------------------ registry
def test_registry_resolves_names_and_aliases():
    assert get_backend("pb-pbs2").name == "pb-pbs2"
    assert get_backend("pbs2").name == "pb-pbs2"  # legacy alias
    names = set(available_backends())
    assert {"pb-pbs2", "pb-galena", "pb-pueblo", "cplex-bb",
            "cdcl-incremental", "cdcl-scratch", "brute",
            "exact-dsatur"} <= names
    with pytest.raises(ValueError) as exc:
        get_backend("nope")
    assert "registered backends" in str(exc.value)


def test_importing_the_api_loads_neither_numpy_nor_scipy():
    # cplex-bb imports repro.ilp, and with it numpy and scipy, on its
    # first use; every other backend runs without them.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = ("import sys, repro.api, repro.batch; "
             "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_new_backend_plugs_in_without_call_site_changes():
    class GreedyBackend(Backend):
        name = "test-greedy"
        description = "DSATUR heuristic as a (non-exact) backend"
        supports = ("chromatic",)
        sbp_kinds = ("none",)

        def run(self, problem, config, ctx):
            from repro.graphs.coloring_heuristics import dsatur

            coloring, ub = dsatur(problem.graph)
            return Result(
                status="SAT",  # feasible, optimality not proved
                num_colors=ub,
                coloring={v: c + 1 for v, c in coloring.items()},
            )

    register_backend(GreedyBackend())
    try:
        result = (Pipeline().solve(backend="test-greedy")
                  .run(ChromaticProblem(queens_graph(4, 4))))
        # A SAT answer from an optimization backend degrades to FEASIBLE
        # at the Pipeline boundary: verified coloring, no optimality proof.
        assert result.status == "FEASIBLE" and result.num_colors >= 5
        assert result.degraded and result.feasible
        assert result.provenance.backend == "test-greedy"
        # Unsupported problem kinds fail fast at the boundary.
        with pytest.raises(ValueError, match="decision"):
            Pipeline().solve(backend="test-greedy").run(
                DecisionProblem(TRIANGLE_PLUS, 3))
    finally:
        _REGISTRY.pop("test-greedy", None)


def test_pipeline_run_rejects_an_improper_coloring():
    class OneColorBackend(Backend):
        name = "test-one-color"
        description = "answers SAT with every vertex on color 1"
        supports = ("decision",)
        sbp_kinds = ("none",)

        def run(self, problem, config, ctx):
            return Result(
                status="SAT", num_colors=1,
                coloring={v: 1 for v in problem.graph.vertices()},
            )

    register_backend(OneColorBackend())
    try:
        with pytest.raises(ValueError, match="monochromatic"):
            (Pipeline().solve(backend="test-one-color")
             .run(DecisionProblem(mycielski_graph(3), 4)))
    finally:
        _REGISTRY.pop("test-one-color", None)


# ----------------------------------------------------------------- pipelines
def test_pipeline_builder_is_immutable():
    base = Pipeline().symmetry(sbp_kind="nu")
    specialized = base.solve(backend="pb-pueblo")
    assert base.config.solve.backend == "pb-pbs2"
    assert specialized.config.solve.backend == "pb-pueblo"
    assert specialized.config.symmetry.sbp_kind == "nu"


@pytest.mark.parametrize("backend", ["pb-pbs2", "pb-galena", "pb-pueblo", "cplex-bb"])
def test_budgeted_optimize_across_backends(backend):
    result = (Pipeline().solve(backend=backend, time_limit=30)
              .run(BudgetedOptimize(TRIANGLE_PLUS, 4)))
    assert result.status == "OPTIMAL" and result.num_colors == 3
    assert TRIANGLE_PLUS.is_proper_coloring(result.coloring)
    assert result.provenance.backend == backend


@pytest.mark.parametrize("backend,chi", [
    ("pb-pbs2", 4), ("cdcl-incremental", 4), ("cdcl-scratch", 4),
    ("exact-dsatur", 4),
])
def test_chromatic_across_backends(backend, chi):
    result = (Pipeline().solve(backend=backend, time_limit=60)
              .run(ChromaticProblem(mycielski_graph(3))))
    assert result.status == "OPTIMAL" and result.chromatic_number == chi


PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], name="P4")


@pytest.mark.parametrize(
    "backend", ["cdcl-incremental", "cdcl-scratch", "pb-pbs2", "exact-dsatur", "brute"])
def test_an_optimal_chromatic_result_carries_its_bounds(backend):
    # A proved optimum is both bounds, on every backend.
    result = Pipeline().solve(backend=backend, time_limit=60).run(ChromaticProblem(PATH4))
    assert result.status == "OPTIMAL"
    assert result.lower_bound == result.upper_bound == result.num_colors == 2


def test_decision_across_backends():
    for backend in ("pb-pbs2", "cdcl-incremental", "exact-dsatur"):
        sat = (Pipeline().solve(backend=backend, time_limit=30)
               .run(DecisionProblem(mycielski_graph(3), 4)))
        unsat = (Pipeline().solve(backend=backend, time_limit=30)
                 .run(DecisionProblem(mycielski_graph(3), 3)))
        assert sat.status == "SAT", backend
        assert unsat.status == "UNSAT", backend


def test_brute_backend_matches_cdcl_on_tiny_graph():
    tiny = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    brute = Pipeline().solve(backend="brute").run(ChromaticProblem(tiny))
    cdcl = (Pipeline().solve(backend="cdcl-incremental")
            .run(ChromaticProblem(tiny)))
    assert brute.status == "OPTIMAL"
    assert brute.chromatic_number == cdcl.chromatic_number == 3


@pytest.mark.parametrize(
    "backend", ["cdcl-incremental", "cdcl-scratch", "exact-dsatur", "brute", "portfolio"])
def test_backends_without_a_detect_stage_reject_instance_dependent(backend):
    # Rejected up front rather than silently ignored: these backends
    # have no detect stage to run the instance-dependent SBPs in.
    pipeline = Pipeline().symmetry(instance_dependent=True).solve(backend=backend)
    with pytest.raises(ValueError, match="instance_dependent"):
        pipeline.run(ChromaticProblem(queens_graph(5, 5)))


@pytest.mark.parametrize("graph", [
    book_graph(60, 150, seed=3),
    disjoint_union(mycielski_graph(3), mycielski_graph(4)),
    queens_graph(5, 5),
], ids=["book", "union", "queen5_5"])
@pytest.mark.parametrize("backend", ["cdcl-incremental", "cdcl-scratch"])
def test_cdcl_runs_report_the_reduce_stage(backend, graph):
    """One reduce stage for every backend: a CDCL chromatic run reports
    the kernel exactly as the 0-1 ILP flow does on the same graph."""
    run = Pipeline().solve(backend=backend, time_limit=60).run(ChromaticProblem(graph))
    ilp = Pipeline().solve(backend="pb-pbs2", time_limit=60).run(ChromaticProblem(graph))
    assert run.status == ilp.status == "OPTIMAL"
    assert run.stages[0].name == ilp.stages[0].name == "reduce"
    assert run.stages[0].details == ilp.stages[0].details
    assert set(run.stages[0].details) == {
        "clique_bound", "kernel_vertices", "peeled_vertices", "components",
        "components_solved"}
    assert run.provenance.config["reduce"] == ilp.provenance.config["reduce"]
    for result in (run, ilp):
        details = result.stage("reduce").details
        # The input graph is the kernel plus the peeled vertices, and an
        # optimum solved every kernel component.
        assert details["kernel_vertices"] + details["peeled_vertices"] == graph.num_vertices
        assert details["components_solved"] == details["components"]
    for field in ("kernel_vertices", "peeled_vertices", "components_solved"):
        assert run.stage("reduce").details[field] == ilp.stage("reduce").details[field], field


@pytest.mark.parametrize("graph,k,solvers", [
    (mycielski_graph(3), 4, 0),
    (queens_graph(5, 5), 4, 0),
    (queens_graph(5, 5), 5, 1),
    (disjoint_union(queens_graph(5, 5), queens_graph(5, 5)), 5, 2),
], ids=["fully-peeled", "clique-bound", "one-component", "two-components"])
def test_cdcl_decisions_count_the_solvers_they_build(graph, k, solvers):
    with scoped_registry() as registry:
        result = (Pipeline().solve(backend="cdcl-incremental", time_limit=60)
                  .run(DecisionProblem(graph, k)))
    built = registry.snapshot().get("counters", {}).get("solver_created_total", 0)
    assert result.solvers_created == built == solvers
    assert result.queries == [(k, result.status)]


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("graph", [
    _cycle(5), _cycle(7), mycielski_graph(4), queens_graph(5, 5),
], ids=["C5", "C7", "myciel4", "clique-bound"])
@pytest.mark.parametrize("strategy", ["linear", "binary"])
@pytest.mark.parametrize("backend", ["cdcl-incremental", "cdcl-scratch"])
def test_cdcl_chromatic_runs_count_the_solvers_they_build(backend, strategy, graph):
    """A K query that preprocessing refutes builds no solver (the odd
    cycles' K=2), so the count is what the registry saw, not one per
    query."""
    with scoped_registry() as registry:
        result = (Pipeline().solve(backend=backend, strategy=strategy, time_limit=60)
                  .run(ChromaticProblem(graph)))
    built = registry.snapshot().get("counters", {}).get("solver_created_total", 0)
    assert result.status == "OPTIMAL"
    assert result.solvers_created == built <= len(result.queries)


@pytest.mark.parametrize("problem", [
    ChromaticProblem(queens_graph(7, 7)),
    ChromaticProblem(mycielski_graph(4), max_colors=4),
], ids=["queen7_7", "capped-myciel4"])
@pytest.mark.parametrize("strategy", ["linear", "binary"])
@pytest.mark.parametrize("backend", ["cdcl-incremental", "cdcl-scratch"])
def test_cdcl_chromatic_runs_emit_one_query_event_per_query(backend, strategy, problem):
    events = []
    result = (Pipeline().solve(backend=backend, strategy=strategy, time_limit=60)
              .run(problem, on_progress=events.append))
    assert result.queries
    assert [(e.k, e.status) for e in events if e.stage == "query"] == result.queries


def test_result_stages_and_provenance():
    pipeline = (Pipeline().symmetry(sbp_kind="nu+sc")
                .solve(backend="pb-pbs2", time_limit=60))
    result = pipeline.run(BudgetedOptimize(queens_graph(4, 4), 6))
    names = [s.name for s in result.stages]
    assert names == ["reduce", "encode", "sbp", "simplify", "solve"]
    assert result.total_seconds >= result.solve_seconds >= 0
    assert result.provenance.config["simplify"]
    prov = result.provenance
    assert prov.problem == "budgeted-optimize"
    assert prov.backend == "pb-pbs2"
    assert prov.config["sbp_kind"] == "nu+sc"
    # A fully peeled graph is solved by the reduce stage alone — the
    # stage trace records exactly that.
    peeled = pipeline.run(BudgetedOptimize(TRIANGLE_PLUS, 4))
    assert peeled.status == "OPTIMAL" and peeled.num_colors == 3
    assert [s.name for s in peeled.stages] == ["reduce"]
    assert peeled.stage("reduce").details["peeled_vertices"] == 4


def test_a_multi_component_run_describes_every_component_in_its_stages():
    # The kernel has two components; the integer stage details add up
    # over both.
    graph = disjoint_union(get_instance("myciel4").graph(),
                           get_instance("queen5_5").graph())
    result = (Pipeline().symmetry(sbp_kind="nu+sc")
              .solve(backend="pb-pbs2", time_limit=60)
              .run(BudgetedOptimize(graph, 8)))
    assert result.status == "OPTIMAL"
    kernel = kernelize(graph, 8)
    assert len(kernel.components) == 2
    formulas = [encode_coloring(kernel.graph.subgraph(c), 8).formula.stats()
                for c in kernel.components]
    assert result.stage("encode").details == {
        "vars": sum(f.num_vars for f in formulas),
        "clauses": sum(f.num_clauses for f in formulas),
        "pb": sum(f.num_pb for f in formulas),
    }
    # Every SimplifyStats field, summed over what simplifying each
    # component's formula does.
    simplified = [
        simplify_formula(apply_sbp(encode_coloring(
            kernel.graph.subgraph(c), 8), "nu+sc").formula)[1]
        for c in kernel.components]
    assert result.stage("simplify").details == {
        field: sum(getattr(stats, field) for stats in simplified)
        for field in asdict(simplified[0])}
    assert result.stage("sbp").details == {"kind": "nu+sc"}


def test_progress_and_cancellation():
    events = []
    result = (Pipeline().solve(backend="pb-pbs2", time_limit=30)
              .run(BudgetedOptimize(queens_graph(4, 4), 6),
                   on_progress=events.append))
    assert result.status == "OPTIMAL"
    assert any(e.stage == "encode" for e in events)
    assert any(e.stage == "solve" for e in events)
    # Cancelling immediately returns UNKNOWN with cancelled=True.
    cancelled = (Pipeline().solve(backend="pb-pbs2", time_limit=30)
                 .run(BudgetedOptimize(queens_graph(4, 4), 6),
                      cancel=lambda: True))
    assert cancelled.cancelled and cancelled.status == "UNKNOWN"


def test_detection_cache_never_serves_a_relabeled_copy():
    """Regression: keyed on the canonical certificate, the cache handed an
    isomorphic relabeling the generators of the first labeling, whose
    lex-leader predicates cut off every 5-coloring of the copy (UNSAT)."""
    graph = get_instance("queen5_5").graph()
    perm = list(range(graph.num_vertices))
    random.Random(12).shuffle(perm)
    relabeled = graph.relabel(perm)
    pipeline = (Pipeline().reduce(False).symmetry(instance_dependent=True)
                .solve(backend="pb-pbs2", time_limit=120))
    cache = {}
    for g in (graph, relabeled, graph):
        result = pipeline.run(BudgetedOptimize(g, 6), detection_cache=cache)
        assert result.status == "OPTIMAL" and result.num_colors == 5
        assert is_proper(g, result.coloring)
    # One entry per labeling: the repeat of the first one was a hit.
    assert len(cache) == 2


# ----------------------------------------------------- budgets / infeasibility
def test_zero_budget_is_unsat_not_one_color():
    # A zero budget, and a cap below chi (4), must come back UNSAT:
    # never clamped up to a budget the solver can meet.
    g = mycielski_graph(3)
    for problem in (ChromaticProblem(g, max_colors=0), BudgetedOptimize(g, 0),
                    DecisionProblem(g, 0), ChromaticProblem(g, max_colors=3)):
        result = Pipeline().solve(backend="pb-pbs2").run(problem)
        assert result.status == "UNSAT", problem
        assert result.num_colors is None
    # The empty graph is trivially 0-colorable within a 0 budget.
    empty = ChromaticProblem(Graph(0), max_colors=0)
    result = Pipeline().solve(backend="pb-pbs2").run(empty)
    assert result.status == "OPTIMAL" and result.num_colors == 0


def test_solve_problem_convenience():
    result = solve_problem(BudgetedOptimize(TRIANGLE_PLUS, 4))
    assert result.status == "OPTIMAL" and result.num_colors == 3
