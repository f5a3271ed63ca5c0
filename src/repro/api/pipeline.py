"""The :class:`Pipeline` builder, the run frame and the staged engine.

A pipeline is a validated :class:`~repro.api.config.PipelineConfig`
plus a fluent builder over it: ``Pipeline().symmetry(sbp_kind="nu+sc")
.solve(backend="pb-pbs2", time_limit=60).run(problem)``.  Every stage
is explicit and individually configurable; the order is fixed.

:func:`run_framed` is the frame every backend's answer is finished in:
it answers the empty graph and seeds the run's one deadline, and its
last step, :func:`finish`, checks the coloring, bounds a proved optimum
and degrades an unproved one to ``FEASIBLE``.  :meth:`Pipeline.run`
and every portfolio racer run in it; :class:`~repro.api.Session`
finishes its answers with :func:`finish`.

:func:`run_optimize_flow` is the staged interpreter behind every
0-1-ILP backend: it executes ``reduce`` (kernelization + component
split, recursing per component), ``encode``, ``sbp``, ``simplify`` and
``detect``, then hands the prepared formula to the backend's solve
hook — recording one :class:`~repro.api.results.StageStat` per stage
and honouring the run context's cancellation between stages.  Its
reduce stage, :func:`run_reduced`, is the one per-component loop: CDCL
decisions run it too, with a CNF decision as the per-component solve,
and so does ``exact-dsatur``, with one branch and bound per component.
Every backend that kernelizes reports the kernel through
:func:`reduce_report`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, replace
from typing import Any, Callable, Dict, List, Optional

from ..coloring.encoding import (
    ColoringEncoding,
    decode_coloring,
    encode_coloring,
)
from ..coloring.reduce import Kernel, kernelize, lift
from ..coloring.verify import check_proper
from ..core.collector import collector_paused
from ..graphs.cliques import clique_lower_bound
from ..graphs.coloring_heuristics import dsatur
from ..graphs.graph import Graph
from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from ..resilience import Deadline
from ..sat.preprocessing import simplify_formula
from ..sat.result import FEASIBLE, OPTIMAL, SAT, UNKNOWN, UNSAT, SolverStats
from ..sbp.lex_leader import add_symmetry_breaking_predicates
from ..symmetry.detect import SymmetryReport, detect_symmetries
from .config import (
    PipelineConfig,
    ReduceConfig,
)
from .problems import DECISION, Problem
from .results import (
    ProgressEvent,
    Provenance,
    Result,
    RunContext,
    StageStat,
)

#: The optional preparation stages (sbp, simplify, detect) may spend at
#: most this fraction of the budget left when encoding starts; past it
#: they are skipped.  They only speed the solver up, so on a tight
#: budget the rest is better spent solving.
PREP_FRACTION = 0.5


class Pipeline:
    """Composable solve pipeline: configure stages, then ``run`` problems.

    Builder methods return a *new* pipeline (configs are frozen), so
    partial pipelines can be shared and specialized::

        base = Pipeline().symmetry(sbp_kind="nu+sc")
        fast = base.solve(backend="pb-pueblo", time_limit=10)
        slow = base.solve(backend="cplex-bb", time_limit=600)
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self._config = config if config is not None else PipelineConfig()

    @property
    def config(self) -> PipelineConfig:
        return self._config

    def _replace(self, **kwargs: object) -> "Pipeline":
        return Pipeline(replace(self._config, **kwargs))

    def reduce(self, enabled: bool = True) -> "Pipeline":
        """Toggle graph kernelization (peeling + component split)."""
        return self._replace(reduce=ReduceConfig(enabled=enabled))

    def symmetry(self, **kwargs: object) -> "Pipeline":
        """Configure symmetry breaking (``sbp_kind``,
        ``instance_dependent``, ``detection_node_limit``)."""
        return self._replace(symmetry=replace(self._config.symmetry, **kwargs))

    def simplify(self, enabled: bool = True) -> "Pipeline":
        """Toggle clause simplification
        (:class:`~repro.api.config.SimplifyConfig`)."""
        return self._replace(simplify=replace(self._config.simplify, enabled=enabled))

    def solve(self, **kwargs: object) -> "Pipeline":
        """Configure the solve stage (``backend``, ``strategy``,
        ``time_limit``, ``racers``)."""
        return self._replace(solve=replace(self._config.solve, **kwargs))

    def run(
        self,
        problem: Problem,
        on_progress: Optional[Callable[[ProgressEvent], None]] = None,
        cancel: Optional[Callable[[], bool]] = None,
        detection_cache: Optional[Dict[Any, Any]] = None,
    ) -> Result:
        """Execute the configured pipeline on ``problem``.

        ``on_progress`` receives :class:`ProgressEvent` notifications at
        stage transitions (and per K query where the backend supports
        it); ``cancel`` is a zero-argument predicate polled between
        stages and queries — when it turns true the run stops and the
        best-so-far answer is returned with ``cancelled=True``.  The
        backend runs in :func:`run_framed`, so a returned coloring is
        checked against ``problem.graph``; an improper one raises
        ``ValueError``.
        """
        from .backends import get_backend

        backend = get_backend(self._config.solve.backend)
        backend.validate(problem, self._config)
        ctx = RunContext(
            on_progress=on_progress,
            cancel=cancel,
            detection_cache=detection_cache,
        )
        ctx.emit("pipeline", f"{problem.kind} on backend {backend.name}")
        result = run_framed(backend, problem, self._config, ctx)
        registry = get_registry()
        registry.inc("pipeline_runs_total",
                     backend=backend.name, status=result.status)
        if result.degraded:
            registry.inc("pipeline_degraded_total")
            tracer = active_tracer()
            if tracer is not None:
                tracer.degraded("pipeline", result.status)
        for stage in result.stages:
            registry.observe_seconds(
                "pipeline_stage_seconds", stage.seconds, stage=stage.name)
        result.provenance = Provenance(
            problem=problem.kind,
            backend=backend.name,
            config=self._config.summary(),
        )
        return result


# --------------------------------------------------------------------------
# The frame every answer is finished in.
# --------------------------------------------------------------------------


def run_framed(backend, problem: Problem, config: PipelineConfig,
               ctx: RunContext) -> Result:
    """Run ``backend`` on ``problem`` and :func:`finish` its answer.

    The empty graph is answered here (0 colors, no solver).  Otherwise
    ``ctx`` gets the run's one deadline, from ``config.solve.time_limit``:
    every stage, component, K query and racer of the run spends from it.
    """
    if not problem.graph.num_vertices:
        result = Result(status=SAT if problem.kind == DECISION else OPTIMAL,
                        num_colors=0, coloring={})
    else:
        ctx = replace(ctx, deadline=Deadline.after(config.solve.time_limit))
        result = backend.run(problem, config, ctx)
    return finish(problem.graph, problem.kind != DECISION, result)


def finish(graph: Graph, optimizing: bool, result: Result) -> Result:
    """Check and settle one answer on ``graph`` (the frame's last step).

    A coloring must properly color ``graph`` (``ValueError`` otherwise).
    When ``optimizing``, a proved optimum is both bounds, and a coloring
    without an optimality proof (the budget ran out, or the caller
    cancelled) degrades to ``FEASIBLE`` instead of being discarded.
    """
    if result.coloring is not None:
        check_proper(graph, result.coloring)
    if optimizing and result.status == OPTIMAL:
        result.lower_bound = result.upper_bound = result.num_colors
    elif optimizing and result.status in (SAT, FEASIBLE):
        result.status = FEASIBLE
        result.degraded = True
        if result.upper_bound is None:
            result.upper_bound = result.num_colors
    return result


# --------------------------------------------------------------------------
# The staged interpreter behind the 0-1 ILP backends.
# --------------------------------------------------------------------------


def _detection_key(graph: Graph, budget: int, sbp_kind: str,
                   simplified_ran: bool, node_limit: Optional[int]):
    """Cache key for a symmetry-detection report.

    Keyed on the graph *as labeled* (a digest of its sorted edge list):
    the cached generators permute this labeling's variables, so only the
    same labeling may reuse them — on an isomorphic relabeling they are
    not symmetries.  Batch workers re-solving the same instance still
    stop re-detecting per task.  The rest of the key is everything that
    changes the formula detection sees, or how far detection searches.
    """
    from hashlib import sha1

    edges = sorted(graph.edges())
    digest = sha1(repr((graph.num_vertices, edges)).encode()).hexdigest()
    return (digest, budget, sbp_kind, simplified_ran, node_limit)


def _detect_and_break(
    formula,
    key,
    node_limit: Optional[int],
    cache: Optional[Dict],
    coloring: ColoringEncoding,
    should_stop: Callable[[], bool],
) -> SymmetryReport:
    """Detect symmetries and append lex-leader SBPs (cached by key).

    ``coloring`` lets detection lift Aut(G) × S_K instead of searching
    the formula graph.  A report is cached only when it is complete or
    was cut by ``node_limit``, which repeats exactly; one that
    ``should_stop`` cut short is used but not stored, so a later run
    with more budget does not inherit its partial generator set.
    """
    stopped = False

    def stop() -> bool:
        nonlocal stopped
        stopped = stopped or should_stop()
        return stopped

    hit = False
    if cache is not None:
        hit = key in cache
        get_registry().inc(
            "symmetry_cache_total", result="hit" if hit else "miss")
    if hit:
        report = cache[key]
    else:
        report = detect_symmetries(
            formula, node_limit=node_limit, compute_order=False,
            coloring=coloring, should_stop=stop)
        if cache is not None and not stopped:
            cache[key] = report
    add_symmetry_breaking_predicates(formula, report.generators)
    return report


def run_optimize_flow(
    graph: Graph,
    budget: int,
    config: PipelineConfig,
    ctx: RunContext,
    engine,
    decision: bool = False,
) -> Result:
    """Execute the staged 0-1 ILP flow on ``graph`` with ``budget`` colors.

    ``engine`` supplies the solve stage: ``engine.minimize(formula,
    time_limit, upper, lower)`` returning an :class:`OptimizeResult`,
    and ``engine.decide(formula, time_limit)`` returning a
    :class:`SolveResult` (used when ``decision=True`` — satisfiability
    only, no objective tightening).
    """
    if budget <= 0:
        return Result(status=UNSAT)  # no colors for a non-empty graph

    def solve(sub: Graph) -> Result:
        return _run_formula_stages(sub, budget, config, ctx, engine, decision)

    if config.reduce.enabled:
        return run_reduced(graph, budget, config, ctx, solve, decision)
    return solve(graph)


def reduce_report(kernel: Kernel) -> StageStat:
    """The ``reduce`` StageStat of a kernel.

    Every backend that kernelizes reports through here, so a CDCL run
    and a 0-1 ILP run of the same problem describe the same kernel the
    same way.  ``components_solved`` starts at 0 and counts the kernel
    components that came back with a coloring.  An infeasible kernel
    (clique bound above the budget) reports only its clique bound.
    """
    details: Dict[str, Any] = {"clique_bound": kernel.clique_bound}
    if not kernel.infeasible:
        kept = kernel.graph.num_vertices
        details.update(
            kernel_vertices=kept,
            peeled_vertices=kernel.source.num_vertices - kept,
            components=len(kernel.components),
            components_solved=0,
        )
    return StageStat("reduce", kernel.seconds, details)


def run_reduced(
    graph: Graph,
    budget: Optional[int],
    config: PipelineConfig,
    ctx: RunContext,
    solve: Callable[[Graph], Result],
    decision: bool,
) -> Result:
    """The reduce stage: kernelize, solve per component, lift back.

    :func:`~repro.coloring.reduce.kernelize` owns the policy (UNSAT when
    the clique bound exceeds ``budget``; decisions peel at ``budget``,
    optimization at the clique bound; ``None`` is an uncapped chromatic
    number).  ``solve(subgraph)`` answers one kernel component — the
    0-1 ILP formula stages, one CNF decision, or one DSATUR branch and
    bound — and the component colorings are lifted back onto ``graph``.
    Components share the run's deadline sequentially: each one sees
    whatever budget its predecessors left.  ``solvers_created`` is the
    sum of what the components report, so a kernel that peeling or the
    clique bound settles reports none.  A run stopped early (a
    component it could not settle, or a cancel) still reports the
    components it solved, and an optimization left unproved keeps the
    clique bound as its lower bound.
    """
    ctx.emit("reduce", "kernelizing (peel + component split)")
    kernel = kernelize(graph, budget, decision)
    reduce_stage = reduce_report(kernel)
    stages: List[StageStat] = [reduce_stage]
    if kernel.infeasible:
        return Result(status=UNSAT, stages=stages)

    merged = Result(status=OPTIMAL, stages=stages)
    parts = []
    for component in kernel.components:
        if ctx.cancelled():
            merged.status, merged.cancelled = UNKNOWN, True
            break
        result = solve(kernel.graph.subgraph(component))
        _merge_stages(stages, result.stages)
        merged.stats.merge(result.stats)
        merged.solvers_created += result.solvers_created
        if merged.detection is None:
            merged.detection = result.detection
        if result.status in (UNSAT, UNKNOWN):
            merged.status = result.status
            merged.cancelled = result.cancelled
            break
        if result.status == SAT and not decision:
            merged.status = SAT  # feasible but optimality not proved
        merged.cancelled = merged.cancelled or result.cancelled
        reduce_stage.details["components_solved"] += 1
        parts.append((component, result.coloring))
    else:  # every component came back with a coloring
        coloring = lift(kernel, parts)
        if decision and merged.status == OPTIMAL:
            merged.status = SAT
        merged.num_colors = len(set(coloring.values()))
        merged.coloring = coloring
    if not decision and merged.status in (SAT, UNKNOWN):
        merged.lower_bound = max(kernel.clique_bound, 1)  # the frame bounds an optimum
    return merged


def _merge_stages(stages: List[StageStat], new_stages: List[StageStat]) -> None:
    """Fold one component's stages into the parent's stage list.

    Seconds and integer details (variables, clauses, generators, nodes)
    add up over the components; ``complete`` holds only if every
    component completed; a string detail keeps the first component's.
    """
    by_name = {s.name: s for s in stages}
    for stat in new_stages:
        merged = by_name.get(stat.name)
        if merged is None:
            merged = StageStat(stat.name, stat.seconds, dict(stat.details))
            stages.append(merged)
            by_name[stat.name] = merged
            continue
        merged.seconds += stat.seconds
        details = merged.details
        for key, value in stat.details.items():
            old = details.get(key)
            if key not in details:
                details[key] = value
            elif isinstance(old, bool) and isinstance(value, bool):
                details[key] = old and value
            elif isinstance(old, int) and isinstance(value, int):
                details[key] = old + value


def _run_formula_stages(
    graph: Graph,
    budget: int,
    config: PipelineConfig,
    ctx: RunContext,
    engine,
    decision: bool,
) -> Result:
    """Encode, then run sbp, simplify and detect, then solve.

    An optimization's solve starts from the DSATUR and clique bounds,
    and answers with the DSATUR coloring (unproved) when it fits the
    budget and the engine ends with no coloring of its own.  The
    encode, sbp and simplify stages run with the cyclic collector
    paused (:mod:`repro.core.collector`); detect and solve keep it on.
    """
    stages: List[StageStat] = []
    sym = config.symmetry
    deadline = ctx.deadline
    budget_left = deadline.remaining()
    prep_deadline = deadline.child(
        None if budget_left is None else budget_left * PREP_FRACTION
    )

    t0 = time.monotonic()
    ctx.emit("encode", f"encoding {budget}-coloring as 0-1 ILP")
    with collector_paused():
        encoding = encode_coloring(graph, budget)
    formula = encoding.formula
    fstats = formula.stats()
    stages.append(
        StageStat(
            "encode",
            time.monotonic() - t0,
            {"vars": fstats.num_vars, "clauses": fstats.num_clauses,
             "pb": fstats.num_pb},
        )
    )

    detection: Optional[SymmetryReport] = None
    simplified_ran = False
    for stage_name in ("sbp", "simplify", "detect"):
        if ctx.cancelled():
            return Result(status=UNKNOWN, stages=stages, cancelled=True)
        if prep_deadline.expired():
            ctx.emit(stage_name, "skipped: preparation budget exhausted")
            stages.append(StageStat(stage_name, 0.0, {"skipped": "budget"}))
            continue
        t0 = time.monotonic()
        if stage_name == "sbp":
            if sym.sbp_kind != "none":
                ctx.emit("sbp", f"appending {sym.sbp_kind} SBPs")
                from ..sbp.instance_independent import apply_sbp

                with collector_paused():
                    formula = apply_sbp(encoding, sym.sbp_kind).formula
                stages.append(
                    StageStat("sbp", time.monotonic() - t0, {"kind": sym.sbp_kind})
                )
        elif stage_name == "simplify":
            if config.simplify.enabled:
                ctx.emit("simplify", "simplifying the clause database")
                with collector_paused():
                    simplified, sstats = simplify_formula(formula, deadline=prep_deadline)
                simplified_ran = True
                stages.append(
                    StageStat("simplify", time.monotonic() - t0, asdict(sstats))
                )
                if simplified is None:
                    # The clause database alone is contradictory (e.g.
                    # SBPs colliding with a too-small budget).
                    return Result(status=UNSAT, stages=stages, detection=detection)
                formula = simplified
        elif stage_name == "detect":
            if sym.instance_dependent:
                ctx.emit("detect", "detecting symmetries + lex-leader SBPs")
                # The key digests the edge list, so compute it only
                # when a cache is actually wired in.
                key = (
                    _detection_key(graph, budget, sym.sbp_kind,
                                   simplified_ran, sym.detection_node_limit)
                    if ctx.detection_cache is not None else None
                )
                detection = _detect_and_break(
                    formula, key, sym.detection_node_limit, ctx.detection_cache,
                    encoding,
                    lambda: prep_deadline.expired() or ctx.cancelled(),
                )
                stages.append(
                    StageStat(
                        "detect",
                        time.monotonic() - t0,
                        {"generators": detection.num_generators,
                         "route": detection.route,
                         "complete": detection.complete},
                    )
                )

    if ctx.cancelled():
        return Result(status=UNKNOWN, stages=stages, cancelled=True)

    # The DSATUR and clique bounds only seed the solve: its clock runs.
    t0 = time.monotonic()
    heuristic: Optional[Dict[int, int]] = None  # DSATUR's, if it fits
    upper = None
    lower = 0
    if not decision:
        dsatur_coloring, dsatur_colors = dsatur(graph)
        if dsatur_colors <= budget:
            heuristic, upper = dsatur_coloring, dsatur_colors
        lower = clique_lower_bound(graph)
    ctx.emit("solve", "decision query" if decision else "minimizing used colors")
    cancel_hook = ctx.cancelled if ctx.cancel else None
    if decision:
        solve_result = engine.decide(
            formula, deadline.remaining(), should_stop=cancel_hook,
        )
        seconds = time.monotonic() - t0
        stages.append(StageStat("solve", seconds, {"status": solve_result.status}))
        packaged = _package(
            encoding, solve_result.status, solve_result.model,
            solve_result.stats, stages, detection,
        )
        if packaged.status == UNKNOWN and ctx.cancelled():
            packaged.cancelled = True
        return packaged
    opt_result = engine.minimize(
        formula, deadline.remaining(), upper, lower, should_stop=cancel_hook,
    )
    seconds = time.monotonic() - t0
    stages.append(StageStat("solve", seconds, {"status": opt_result.status}))
    packaged = _package(
        encoding, opt_result.status, opt_result.best_model, opt_result.stats,
        stages, detection, value=opt_result.best_value,
    )
    if packaged.status == UNKNOWN and packaged.coloring is None and heuristic is not None:
        # The engine found no coloring in time, but the DSATUR one fits
        # the budget: an unproved answer, which the frame degrades.
        packaged.status = SAT
        packaged.coloring = {v: c + 1 for v, c in heuristic.items()}
        packaged.num_colors = upper
    if packaged.status != OPTIMAL and lower > 0:
        packaged.lower_bound = lower  # the frame bounds an optimum
    # A stop that fired inside the minimize loop surfaces as a
    # best-so-far SAT/UNKNOWN; stamp it so callers can tell a cancelled
    # descent from a naturally unproved one.
    if not packaged.solved and ctx.cancelled():
        packaged.cancelled = True
    return packaged


def _package(
    encoding: ColoringEncoding,
    status: str,
    model: Optional[Dict[int, bool]],
    stats: SolverStats,
    stages: List[StageStat],
    detection: Optional[SymmetryReport],
    value: Optional[int] = None,
) -> Result:
    """Decode and wrap the solve stage's model (``None``: no coloring).
    ``value`` is the objective value the solver reported for it, which
    must be the decoded coloring's color count; the frame checks the
    coloring itself."""
    coloring = None
    num_colors = None
    if model is not None:
        coloring = decode_coloring(encoding, model)
        num_colors = len(set(coloring.values()))
        if value is not None and num_colors != value:
            raise AssertionError(
                f"decoded coloring uses {num_colors} colors but solver "
                f"reported {value}"
            )
    return Result(
        status=status,
        num_colors=num_colors,
        coloring=coloring,
        stages=stages,
        detection=detection,
        stats=stats,
        solvers_created=1,
    )


def run_chromatic_via_budget(
    graph: Graph,
    max_colors: Optional[int],
    config: PipelineConfig,
    ctx: RunContext,
    engine,
) -> Result:
    """Chromatic number through the budgeted-optimize flow.

    Picks the budget K from the DSATUR upper bound (which always
    suffices), capped by ``max_colors``.  The frame has answered the
    empty graph; a cap of zero then reaches :func:`run_optimize_flow`
    as a zero budget, which is UNSAT.
    """
    _, ub = dsatur(graph)
    k = ub if max_colors is None else min(max_colors, ub)
    return run_optimize_flow(graph, k, config, ctx, engine)
