"""The :class:`Backend` protocol and the backend registry.

A backend is a named solving engine that answers API problems.  New
engines plug in by subclassing :class:`Backend` and calling
:func:`register_backend` — no call site changes.  Lookup is by name
(or alias) and a bad name raises ``ValueError`` listing the registered
choices, at the API boundary instead of a deep ``KeyError``.

Registered engines:

=================  =========================================================
``pb-pbs2``        PBS II profile of the CDCL+PB engine (alias ``pbs2``)
``pb-galena``      Galena profile (alias ``galena``)
``pb-pueblo``      Pueblo profile, binary-search optimization (alias
                   ``pueblo``)
``cplex-bb``       generic LP-based branch and bound (CPLEX stand-in)
``cdcl-incremental``  pure-CNF CDCL; chromatic descents run on one
                   persistent solver with per-color activation literals
``cdcl-scratch``   pure-CNF CDCL, one fresh solver per K query
``brute``          exhaustive enumeration (tiny instances; the oracle)
``exact-dsatur``   DSATUR branch and bound (problem-specific baseline)
``portfolio``      races the engines in ``SolveConfig.racers`` in worker
                   processes; first conclusive answer cancels the rest
=================  =========================================================
"""

from __future__ import annotations

import abc
import time
from typing import Dict, Iterable, List, Tuple

from ..coloring.encoding import decode_indicators
from ..coloring.exact_dsatur import exact_chromatic_number
from ..coloring.reduce import kernelize
from ..coloring.sat_pipeline import (
    CNF_SBP_KINDS,
    chromatic_number_sat,
    encode_k_coloring_cnf,
    sat_k_colorable,
)
from ..graphs.graph import Graph
from ..pb.presets import get_preset, solve_optimize
from ..resilience import Deadline
from ..sat.brute import MAX_BRUTE_VARS, brute_force_solve
from ..sat.result import (
    OPTIMAL,
    SAT,
    SolveResult,
    UNKNOWN,
    UNSAT,
)
from ..sbp.instance_independent import SBP_KINDS
from .config import PipelineConfig
from .pipeline import (
    reduce_report,
    run_chromatic_via_budget,
    run_optimize_flow,
    run_reduced,
)
from .problems import BUDGETED, CHROMATIC, DECISION, Problem
from .results import Result, RunContext, StageStat, conclusive


class Backend(abc.ABC):
    """A named engine answering coloring problems.

    Subclasses declare which problem kinds they ``supports``, which
    instance-independent SBP constructions they accept and whether they
    run the ``detect`` stage (``detects``), and implement :meth:`run`.
    ``persistent`` advertises whether multi-query searches reuse one
    solver (the incremental engines).
    """

    name: str = ""
    description: str = ""
    supports: Tuple[str, ...] = (DECISION, CHROMATIC, BUDGETED)
    sbp_kinds: Tuple[str, ...] = SBP_KINDS
    detects: bool = False
    persistent: bool = False

    def validate(self, problem: Problem, config: PipelineConfig) -> None:
        """Fail fast on settings this backend cannot honour: unsupported
        problem kinds, SBP constructions, or instance-dependent detection
        on a backend without a detect stage."""
        if problem.kind not in self.supports:
            raise ValueError(
                f"backend {self.name!r} does not answer {problem.kind!r} "
                f"problems; it supports {self.supports}"
            )
        if config.symmetry.sbp_kind not in self.sbp_kinds:
            raise ValueError(
                f"backend {self.name!r} supports sbp_kind in {self.sbp_kinds}, "
                f"got {config.symmetry.sbp_kind!r}"
            )
        if config.symmetry.instance_dependent and not self.detects:
            raise ValueError(
                f"backend {self.name!r} has no detect stage, so it cannot "
                "honour instance_dependent=True; use a 0-1 ILP backend"
            )

    @abc.abstractmethod
    def run(self, problem: Problem, config: PipelineConfig, ctx: RunContext) -> Result:
        """Answer ``problem`` under ``config``; never raises for UNSAT."""


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_REGISTRY: Dict[str, Backend] = {}
_ALIASES: Dict[str, str] = {}


def register_backend(backend: Backend, aliases: Iterable[str] = ()) -> Backend:
    """Register ``backend`` under its name (and ``aliases``)."""
    if not backend.name:
        raise ValueError("backend must have a non-empty name")
    _REGISTRY[backend.name] = backend
    for alias in aliases:
        _ALIASES[alias] = backend.name
    return backend


def resolve_backend_name(name: str) -> str:
    """Canonical name for ``name``; ``ValueError`` naming the choices."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; registered backends: "
            f"{tuple(sorted(_REGISTRY))} (aliases: {dict(sorted(_ALIASES.items()))})"
        )
    return canonical


def get_backend(name: str) -> Backend:
    """Look up a backend by name or alias (``ValueError`` if unknown)."""
    return _REGISTRY[resolve_backend_name(name)]


def available_backends() -> Dict[str, Backend]:
    """Canonical name -> backend, for registry listings."""
    return dict(sorted(_REGISTRY.items()))


# --------------------------------------------------------------------------
# 0-1 ILP backends (the paper's solvers) on the staged pipeline flow.
# --------------------------------------------------------------------------


class _OptimizeFlowBackend(Backend):
    """Shared dispatch for backends that ride the staged 0-1 ILP flow."""

    detects = True

    def run(self, problem: Problem, config: PipelineConfig, ctx: RunContext) -> Result:
        if problem.kind == DECISION:
            return run_optimize_flow(
                problem.graph, problem.k, config, ctx, self, decision=True
            )
        if problem.kind == BUDGETED:
            return run_optimize_flow(
                problem.graph, problem.max_colors, config, ctx, self
            )
        return run_chromatic_via_budget(
            problem.graph, problem.max_colors, config, ctx, self
        )

    def minimize(self, formula, time_limit, upper, lower, should_stop=None):
        raise NotImplementedError

    def decide(self, formula, time_limit, should_stop=None) -> SolveResult:
        raise NotImplementedError


class PBPresetBackend(_OptimizeFlowBackend):
    """One behavioural profile of the CDCL+PB engine (PBS II / Galena /
    Pueblo), minimizing used colors per the preset's strategy."""

    def __init__(self, canonical_name: str, preset_name: str):
        self.name = canonical_name
        self.preset = get_preset(preset_name)
        self.persistent = True  # bound probes share one persistent solver
        self.description = self.preset.description

    def minimize(self, formula, time_limit, upper, lower, should_stop=None):
        return solve_optimize(formula, self.preset.name, time_limit=time_limit,
                              upper_bound_hint=upper, lower_bound=lower,
                              should_stop=should_stop)

    def decide(self, formula, time_limit, should_stop=None) -> SolveResult:
        # Loading the formula spends from the time limit too, as it does
        # in minimize; the search gets what the load left.
        deadline = Deadline.after(time_limit)
        solver = self.preset.make_solver(formula.num_vars)
        if not solver.add_formula(formula):
            return SolveResult(UNSAT)
        return solver.solve(time_limit=deadline.remaining(), should_stop=should_stop)


class BranchAndBoundBackend(_OptimizeFlowBackend):
    """Generic LP-based branch and bound (the paper's CPLEX role)."""

    name = "cplex-bb"
    description = "LP-relaxation branch and bound standing in for CPLEX"

    def run(self, problem: Problem, config: PipelineConfig, ctx: RunContext) -> Result:
        # repro.ilp loads numpy and scipy, which no other backend needs:
        # imported on first use, but before the flow reads the budget, so
        # a cold import (most of a second) spends from the run's deadline
        # instead of overrunning it.
        from ..ilp import branch_and_bound  # noqa: F401

        return super().run(problem, config, ctx)

    def minimize(self, formula, time_limit, upper, lower, should_stop=None):
        from ..ilp.branch_and_bound import BranchAndBoundSolver

        return BranchAndBoundSolver().optimize(
            formula, time_limit=time_limit, should_stop=should_stop,
            upper_bound=upper, lower_bound=lower,
        )

    def decide(self, formula, time_limit, should_stop=None) -> SolveResult:
        from ..ilp.branch_and_bound import BranchAndBoundSolver

        return BranchAndBoundSolver().decide(
            formula, time_limit=time_limit, should_stop=should_stop
        )


# --------------------------------------------------------------------------
# Pure-CNF CDCL backends (the repeated-SAT route).
# --------------------------------------------------------------------------


class CdclBackend(Backend):
    """Clause-only CDCL: decision queries and chromatic descents.

    Both kinds start with the reduce stage
    (:func:`~repro.coloring.reduce.kernelize`), reported as the same
    ``reduce`` StageStat the 0-1 ILP flow reports.  A decision runs the
    shared per-component loop
    (:func:`~repro.api.pipeline.run_reduced`) with one
    :func:`~repro.coloring.sat_pipeline.sat_k_colorable` call per kernel
    component.  A chromatic run kernelizes once and descends on that
    kernel: ``cdcl-incremental`` through one persistent solver with
    per-color activation literals (learned clauses, phases and activity
    carry over between K queries), ``cdcl-scratch`` with a fresh
    encoding and solver at every K that preprocessing does not settle
    (the historical behaviour, kept for measurement).  A disconnected
    kernel is not split for the descent: one refutation at chi - 1, in
    the hardest component, proves the whole kernel's optimum.  Every
    answered K query is emitted as a ``query`` progress event carrying
    its ``k`` and ``status``, one per entry of ``Result.queries``.
    Reuse across
    *multiple* queries is what :class:`repro.api.Session` exists for.
    """

    supports = (DECISION, CHROMATIC)
    sbp_kinds = CNF_SBP_KINDS

    def __init__(self, canonical_name: str, incremental: bool):
        self.name = canonical_name
        self.incremental = incremental
        self.persistent = incremental
        self.description = (
            "CNF CDCL; persistent-solver K descent" if incremental
            else "CNF CDCL; fresh solver per K query"
        )

    def run(self, problem: Problem, config: PipelineConfig, ctx: RunContext) -> Result:
        if problem.kind == DECISION:
            return self._decide(problem, config, ctx)
        return self._chromatic(problem, config, ctx)

    def _decide(self, problem, config: PipelineConfig, ctx: RunContext) -> Result:
        if ctx.cancelled():
            return Result(status=UNKNOWN, cancelled=True)
        k = problem.k

        def solve(graph: Graph) -> Result:
            ctx.emit("solve", f"deciding {k}-colorability", k=k)
            t0 = time.monotonic()
            status, coloring, stats, solvers = sat_k_colorable(
                graph,
                k,
                time_limit=ctx.deadline.remaining(),
                sbp_kind=config.symmetry.sbp_kind,
                preprocess=config.simplify.enabled,
                should_stop=ctx.cancelled if ctx.cancel else None,
            )
            return Result(
                status=status,
                num_colors=len(set(coloring.values())) if coloring else None,
                coloring=coloring,
                stages=[StageStat("solve", time.monotonic() - t0, {"status": status})],
                stats=stats,
                solvers_created=solvers,
                cancelled=status == UNKNOWN and ctx.cancelled(),
            )

        if config.reduce.enabled:
            result = run_reduced(problem.graph, k, config, ctx, solve, decision=True)
        else:
            result = solve(problem.graph)
        result.queries = [(k, result.status)]
        return result

    def _chromatic(self, problem, config: PipelineConfig, ctx: RunContext) -> Result:
        strategy = config.solve.strategy or "linear"
        kernel = None
        stages: List[StageStat] = []
        if config.reduce.enabled:
            ctx.emit("reduce", "kernelizing (peel + component split)")
            kernel = kernelize(problem.graph)
            stages.append(reduce_report(kernel))
        ctx.emit("solve", f"{strategy} K descent ({self.name})")

        def on_query(k: int, status: str) -> None:
            ctx.emit("query", f"K={k}: {status}", k=k, status=status)

        t0 = time.monotonic()
        sat_result = chromatic_number_sat(
            problem.graph,
            strategy=strategy,
            time_limit=ctx.deadline.remaining(),
            sbp_kind=config.symmetry.sbp_kind,
            preprocess=config.simplify.enabled,
            incremental=self.incremental,
            should_stop=ctx.cancelled if ctx.cancel else None,
            kernel=kernel,
            max_colors=problem.max_colors,
            on_query=on_query,
        )
        stages.append(StageStat(
            "solve", time.monotonic() - t0,
            {"strategy": strategy, "sat_calls": len(sat_result.k_queries)},
        ))
        if kernel is not None and sat_result.coloring is not None:
            stages[0].details["components_solved"] = len(kernel.components)
        return Result(
            status=sat_result.status,
            num_colors=sat_result.chromatic_number,
            coloring=sat_result.coloring,
            stages=stages,
            stats=sat_result.stats,
            queries=list(sat_result.k_queries),
            solvers_created=sat_result.solvers_created,
            cancelled=sat_result.status not in (OPTIMAL, UNSAT) and ctx.cancelled(),
            lower_bound=sat_result.lower_bound,
        )


# --------------------------------------------------------------------------
# Reference baselines.
# --------------------------------------------------------------------------


class BruteForceBackend(Backend):
    """Exhaustive enumeration over the CNF encoding — the oracle for
    tiny instances (raises ``ValueError`` beyond ~22 variables)."""

    name = "brute"
    description = "exhaustive enumeration oracle (tiny instances only)"
    supports = (DECISION, CHROMATIC)
    sbp_kinds = ("none",)

    def run(self, problem: Problem, config: PipelineConfig, ctx: RunContext) -> Result:
        if problem.kind == DECISION:
            status, coloring, seconds = self._decide_k(problem.graph, problem.k)
            return Result(
                status=status,
                num_colors=len(set(coloring.values())) if coloring else None,
                coloring=coloring,
                stages=[StageStat("solve", seconds)],
                queries=[(problem.k, status)],
                solvers_created=1,
            )
        queries = []
        stages = []
        cap = problem.max_colors
        # A cap of zero asks no K at all: UNSAT.
        upper = problem.graph.num_vertices if cap is None else min(cap, problem.graph.num_vertices)
        solvers = 0
        for k in range(1, upper + 1):
            if ctx.cancelled():
                return Result(status=UNKNOWN, stages=stages, queries=queries,
                              cancelled=True, solvers_created=solvers)
            ctx.emit("solve", f"brute-force {k}-colorability", k=k)
            status, coloring, seconds = self._decide_k(problem.graph, k)
            queries.append((k, status))
            stages.append(StageStat("solve", seconds, {"k": k}))
            solvers += 1
            if status == SAT:
                return Result(
                    status=OPTIMAL,
                    num_colors=len(set(coloring.values())),
                    coloring=coloring,
                    stages=stages,
                    queries=queries,
                    solvers_created=solvers,
                )
        return Result(status=UNSAT, stages=stages, queries=queries,
                      solvers_created=solvers)

    @staticmethod
    def _decide_k(graph, k):
        t0 = time.monotonic()
        if k <= 0:  # the frame has answered the empty graph
            return UNSAT, None, time.monotonic() - t0
        formula, x = encode_k_coloring_cnf(graph, k)
        if formula.num_vars > MAX_BRUTE_VARS:
            raise ValueError(
                f"brute backend needs <= {MAX_BRUTE_VARS} encoding variables, "
                f"got {formula.num_vars} (use a CDCL or PB backend)"
            )
        result = brute_force_solve(formula)
        coloring = None
        if result.is_sat:
            coloring = decode_indicators(x, graph.num_vertices, k, result.model)
        return result.status, coloring, time.monotonic() - t0


class ExactDSaturBackend(Backend):
    """DSATUR branch and bound — the problem-specific baseline of the
    exact-coloring literature (no formula pipeline at all).

    With reduce on, decisions and chromatic runs go through the shared
    per-component loop (:func:`~repro.api.pipeline.run_reduced`), one
    branch and bound per kernel component: on a disjoint union the
    search no longer explores the product of the components' trees.  A
    component whose chromatic number exceeds the cap (or the decision's
    k) is UNSAT when proved and UNKNOWN otherwise.  The search spends
    from the run's deadline and stops when the run is cancelled,
    returning its incumbent."""

    name = "exact-dsatur"
    description = "DSATUR branch and bound (problem-specific baseline)"
    supports = (DECISION, CHROMATIC)
    sbp_kinds = ("none",)

    def run(self, problem: Problem, config: PipelineConfig, ctx: RunContext) -> Result:
        decision = problem.kind == DECISION
        cap = problem.k if decision else problem.max_colors

        def solve(graph: Graph) -> Result:
            ctx.emit("solve", "DSATUR branch and bound")
            t0 = time.monotonic()
            bb = exact_chromatic_number(
                graph,
                time_limit=ctx.deadline.remaining(),
                should_stop=ctx.cancelled if ctx.cancel else None,
            )
            chi = bb.chromatic_number
            if cap is not None and chi > cap:
                status, coloring = (UNSAT if bb.optimal else UNKNOWN), None
            elif decision:
                status, coloring = SAT, bb.coloring
            else:
                status, coloring = (OPTIMAL if bb.optimal else SAT), bb.coloring
            result = Result(
                status=status,
                num_colors=chi if coloring is not None else None,
                coloring=coloring,
                stages=[StageStat("solve", time.monotonic() - t0,
                                  {"nodes": bb.nodes_explored})],
                solvers_created=1,
            )
            result.cancelled = (not conclusive(result, problem.kind)
                                and ctx.cancelled())
            return result

        if config.reduce.enabled:
            return run_reduced(problem.graph, cap, config, ctx, solve, decision)
        return solve(problem.graph)


# --------------------------------------------------------------------------
# Registration (import side effect of the api package).
# --------------------------------------------------------------------------

register_backend(PBPresetBackend("pb-pbs2", "pbs2"), aliases=("pbs2",))
register_backend(PBPresetBackend("pb-galena", "galena"), aliases=("galena",))
register_backend(PBPresetBackend("pb-pueblo", "pueblo"), aliases=("pueblo",))
register_backend(BranchAndBoundBackend())
register_backend(CdclBackend("cdcl-incremental", incremental=True))
register_backend(CdclBackend("cdcl-scratch", incremental=False))
register_backend(BruteForceBackend())
register_backend(ExactDSaturBackend())

# Imported last: the portfolio backend races the engines above, so it
# needs the registry populated (and the module imports this one).
from .portfolio import PortfolioBackend  # noqa: E402

register_backend(PortfolioBackend(), aliases=("race",))
