"""Microbenchmarks of the solver substrates (not tied to a paper table).

These track the performance of the pieces everything else is built on:
unit propagation throughput, pigeonhole refutation, PB propagation,
encoding construction and symmetry detection — plus the head-to-head
the incremental K-search subsystem exists for: the chromatic-number
descent on one persistent solver against the historical fresh-solver-
per-query loop, on multi-K queens/mycielski descents.  Results land in
``BENCH_solver_micro.json``.
"""

from repro.api import ChromaticProblem, Pipeline
from repro.coloring.encoding import encode_coloring
from repro.core.formula import Formula
from repro.experiments.instances import get_instance
from repro.experiments.runner import run_descent
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.graphs.graph import disjoint_union
from repro.pb.engine import PBSolver
from repro.sat.cdcl import CDCLSolver, solve_formula
from repro.symmetry.detect import detect_symmetries


def _pigeonhole(pigeons, holes):
    f = Formula()
    x = {(p, h): f.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        f.add_clause([x[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                f.add_clause([-x[p1, h], -x[p2, h]])
    return f


def test_cdcl_pigeonhole(benchmark, bench_json):
    f = _pigeonhole(7, 6)
    result = benchmark(lambda: solve_formula(f))
    assert result.is_unsat
    bench_json.add(
        "pigeonhole-7-6", conflicts=result.stats.conflicts,
        propagations=result.stats.propagations,
        wall_seconds=result.stats.time_seconds,
    )


def test_cdcl_implication_chain(benchmark, bench_json):
    f = Formula(num_vars=2000)
    for i in range(1, 2000):
        f.add_clause([-i, i + 1])
    f.add_clause([1])

    def load_and_solve():
        # The chain propagates fully while the unit is loaded, so report
        # the solver's global counters, not the per-call solve() deltas.
        # repro: allow[RPR005] micro-bench times the concrete engine, not the factory
        solver = CDCLSolver(num_vars=f.num_vars)
        assert solver.add_formula(f)
        result = solver.solve()
        return result, solver

    (result, solver) = benchmark(load_and_solve)
    assert result.is_sat
    bench_json.add(
        "implication-chain-2000", conflicts=solver.stats.conflicts,
        propagations=solver.stats.propagations,
        wall_seconds=result.stats.time_seconds,
    )


def test_pb_cardinality_propagation(benchmark, bench_json):
    def build_and_solve():
        f = Formula(num_vars=300)
        f.add_at_least(list(range(1, 301)), 299)
        f.add_clause([-7])
        solver = PBSolver()
        solver.add_formula(f)
        return solver.solve(), solver

    (result, solver) = benchmark(build_and_solve)
    assert result.is_sat
    bench_json.add(
        "pb-cardinality-300", conflicts=solver.stats.conflicts,
        propagations=solver.stats.propagations,
        wall_seconds=result.stats.time_seconds,
    )


def test_encoding_construction(benchmark, bench_json):
    graph = queens_graph(8, 8)
    encoding = benchmark(lambda: encode_coloring(graph, 10))
    assert encoding.formula.num_vars == 64 * 10 + 10
    _, seconds = bench_json.timed(encode_coloring, graph, 10)
    bench_json.add("encode-queens8-k10", wall_seconds=seconds)


def test_symmetry_detection_queen5(benchmark, bench_json):
    formula = encode_coloring(queens_graph(5, 5), 6).formula

    def detect():
        return detect_symmetries(formula, compute_order=False)

    report = benchmark(detect)
    assert report.num_generators > 0
    bench_json.add(
        "detect-queen5-k6", generators=report.num_generators,
        wall_seconds=report.detection_seconds,
    )


# The multi-K descents the incremental subsystem targets: an all-SAT
# queens staircase (DSATUR overshoots, the clique bound stops the
# descent without an UNSAT proof) and a mycielski bisection whose
# probes are UNSAT-heavy (exercises failed-assumption cores).
DESCENT_SUITE = (
    ("queens7_7", lambda: queens_graph(7, 7), "linear", 7),
    ("myciel4", lambda: mycielski_graph(4), "binary", 5),
)


def test_incremental_vs_scratch_descent(bench_json):
    """The head-to-head behind the PR: one persistent solver vs scratch.

    Asserts the incremental descent shows >= 2x fewer total conflicts
    or >= 1.5x wall-clock speedup over the suite, and that both modes
    agree on every chromatic number.
    """
    totals = {True: [0, 0.0], False: [0, 0.0]}  # mode -> [conflicts, secs]
    for name, build, strategy, chi in DESCENT_SUITE:
        graph = build()
        for incremental in (True, False):
            record = run_descent(
                name, graph, strategy=strategy,
                incremental=incremental, time_limit=120,
            )
            assert record.status == "OPTIMAL", (name, incremental)
            assert record.chromatic_number == chi, (name, incremental)
            assert record.sat_calls >= 2, (name, incremental)
            totals[incremental][0] += record.conflicts
            totals[incremental][1] += record.seconds
            fields = record.as_json()
            fields.pop("instance")
            bench_json.add(f"descent-{name}", **fields)
    conflict_ratio = totals[False][0] / max(1, totals[True][0])
    wall_speedup = totals[False][1] / max(1e-9, totals[True][1])
    bench_json.add(
        "descent-aggregate",
        scratch_conflicts=totals[False][0],
        incremental_conflicts=totals[True][0],
        conflict_ratio=round(conflict_ratio, 3),
        scratch_seconds=round(totals[False][1], 4),
        incremental_seconds=round(totals[True][1], 4),
        wall_speedup=round(wall_speedup, 3),
    )
    print(f"\n  incremental K-search: {conflict_ratio:.2f}x fewer conflicts, "
          f"{wall_speedup:.2f}x wall-clock speedup over scratch")
    assert conflict_ratio >= 2.0 or wall_speedup >= 1.5, (
        f"incremental descent lost its edge: {conflict_ratio:.2f}x conflicts, "
        f"{wall_speedup:.2f}x wall-clock"
    )


def test_whole_kernel_descent_on_a_disjoint_union(bench_json):
    """The persistent descent on a disconnected benchmark.

    A union of two registry instances (both triangle-free, so neither
    dissolves under peeling) leaves a two-component kernel.  One
    persistent solver descends over the whole kernel; it must agree
    with the from-scratch answer and create exactly one solver, which
    the bench gate pins along with its conflict count.
    """
    graph = disjoint_union(
        get_instance("myciel3").graph(), get_instance("myciel4").graph()
    )
    records = {}
    for incremental in (True, False):
        record = run_descent(
            "myciel3+myciel4", graph, strategy="linear",
            incremental=incremental, time_limit=120,
        )
        assert record.status == "OPTIMAL", incremental
        assert record.chromatic_number == 5, incremental
        records[incremental] = record
        fields = record.as_json()
        fields.pop("instance")
        bench_json.add("descent-union-myciel3+myciel4", **fields)
    whole, scratch = records[True], records[False]
    assert whole.solvers_created == 1
    print(f"\n  union descent: {whole.conflicts} conflicts on one solver, "
          f"{scratch.conflicts} scratch")


def test_incremental_descent_stays_incremental(bench_json):
    """Smoke guard: the default descent must not fall back to scratch.

    A silent regression to per-K scratch solving would keep answers
    correct while quietly discarding the persistent-solver speedup, so
    ``make bench-smoke`` fails if the ``cdcl-incremental`` backend ever
    reports more than one solver instantiation for a multi-query
    descent.  Runs through ``repro.api`` like every other caller.
    """
    result = (
        Pipeline()
        .solve(backend="cdcl-incremental", strategy="binary", time_limit=120)
        .run(ChromaticProblem(mycielski_graph(4)))
    )
    assert result.status == "OPTIMAL" and result.chromatic_number == 5
    assert len(result.queries) >= 2
    assert result.backend == "cdcl-incremental"
    assert result.solvers_created == 1, (
        f"incremental descent created {result.solvers_created} solvers; "
        "it has silently fallen back to per-K scratch solving"
    )
    bench_json.add(
        "smoke-incremental-guard", sat_calls=len(result.queries),
        solvers_created=result.solvers_created,
        conflicts=result.stats.conflicts,
        k_queries=[list(q) for q in result.queries],
    )


def test_tracing_overhead(bench_json):
    """The observability contract: tracing stays cheap and truthful.

    Two interleaved passes over the myciel4 binary descent, min of
    ``reps`` wall times each (min-of-reps is the stable estimator on a
    shared runner): one untraced (*disabled*) and one under an installed
    :func:`repro.obs.tracing` sink (*enabled*).  Their ratio is the
    enabled overhead, gated loosely — it buys the full event stream.
    The disabled cost (the ``tracer is None`` branch the hot loop always
    pays) has no untraced twin to time it against, so it is not gated.
    The conflict counts must be identical across both modes:
    observability must never perturb the search.  The record count of
    the enabled pass is deterministic at a fixed input, so the bench
    gate pins it exactly — a hook that silently stops emitting (or
    double-emits) fails ``make bench-check`` even though the ratio
    would still look fine.
    """
    import io
    import time

    from repro.obs import read_trace, tracing

    graph = mycielski_graph(4)

    def descend():
        return run_descent(
            "myciel4", graph, strategy="binary",
            incremental=True, time_limit=120,
        )

    reps = 5
    best = {"disabled": float("inf"), "enabled": float("inf")}
    conflicts = {}
    trace_records = 0
    for _ in range(reps):
        for mode in ("disabled", "enabled"):
            sink = io.BytesIO()
            t0 = time.perf_counter()
            if mode == "enabled":
                with tracing(sink):
                    record = descend()
            else:
                record = descend()
            wall = time.perf_counter() - t0
            best[mode] = min(best[mode], wall)
            conflicts.setdefault(mode, record.conflicts)
            assert record.conflicts == conflicts[mode], mode
            if mode == "enabled":
                trace_records = len(read_trace(sink.getvalue()).records)
    assert record.status == "OPTIMAL" and record.chromatic_number == 5
    assert conflicts["disabled"] == conflicts["enabled"], (
        "tracing perturbed the search", conflicts)
    assert trace_records > conflicts["enabled"]  # every conflict + lifecycle
    enabled_ratio = best["enabled"] / best["disabled"]
    bench_json.add(
        "tracing-overhead",
        disabled_seconds=round(best["disabled"], 4),
        enabled_seconds=round(best["enabled"], 4),
        enabled_overhead_ratio=round(enabled_ratio, 3),
        trace_records=trace_records,
        conflicts=conflicts["enabled"],
    )
    print(f"\n  tracing overhead: enabled {enabled_ratio:.3f}x "
          f"({trace_records} records)")


def test_budgeted_descent_degrades_verifiably(bench_json):
    """Anytime-degradation guard: an expired budget returns work, not None.

    A descent whose budget expires immediately must still come back
    ``FEASIBLE``/``degraded`` with the *verified* greedy coloring as its
    upper bound — the resilience layer's contract (docs/resilience.md).
    The greedy bound at a fixed input is deterministic, so the bench
    gate pins it: a regression that loses the best-so-far coloring (or
    lets the bound drift) fails ``make bench-check``.
    """
    graph = mycielski_graph(4)
    result = (
        Pipeline()
        .solve(backend="cdcl-incremental", strategy="linear", time_limit=1e-9)
        .run(ChromaticProblem(graph))
    )
    assert result.status == "FEASIBLE" and result.degraded
    assert result.coloring is not None and graph.is_proper_coloring(result.coloring)
    assert result.num_colors == result.upper_bound == 5
    bench_json.add(
        "descent-budgeted-myciel4",
        num_colors=result.num_colors,
        upper_bound=result.upper_bound,
        degraded=int(result.degraded),
    )
