"""Per-component Session pool: kernelization composed with persistence.

Kernelization (peeling at the clique bound + component split) and the
persistent-solver K-search have lived side by side since PR 2 without
composing: the incremental descent ran *one* solver over the whole
kernel, so learned clauses from one component polluted the search of
another and a hard component stalled the easy ones.
:class:`ComponentSessionPool` closes that gap — after the kernel splits,
every connected component gets its own persistent
:class:`~repro.api.Session` (one :class:`IncrementalKSearch` each), the
pool runs the component descents largest-first, and the answers
recombine exactly:

``chi(G) = max(lb, max over components of chi(component))``

where ``lb`` is the clique bound the kernel was peeled at.  The merged
:class:`~repro.api.Result` carries one :class:`ComponentTrace` per
component (size, status, K-query trace, solver count) so callers can
see exactly which component cost what — and ``solvers_created`` equals
the number of components that needed a solver, the pool's contract.

The descents run one after another in this process, largest component
first, with the pool's :class:`~repro.resilience.Deadline` shared via
:meth:`Deadline.share` so unused budget flows forward.  A component
that proves UNSAT settles the whole answer, and the later components
are not started.  The differential harness
(``tests/test_component_pool.py``) holds pool == single-solver ==
scratch == exact-dsatur.

The ``cdcl-incremental`` backend routes chromatic problems through the
pool by default whenever the kernel is disconnected
(``SolveConfig.split_components``), handing over the
:class:`~repro.coloring.reduce.Kernel` its reduce stage built; the pool
class itself is public API for callers that want to keep the
per-component sessions alive for follow-up queries.
"""

from __future__ import annotations

import copy
import time
from typing import Callable, List, Optional, Tuple

from ..coloring.reduce import Kernel, kernelize, lift
from ..graphs.graph import Graph
from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from ..resilience import Deadline
from ..sat.result import FEASIBLE, OPTIMAL, SAT, UNKNOWN, UNSAT, SolverStats
from .config import PipelineConfig
from .pipeline import reduce_report
from .results import (
    ComponentTrace,
    PipelineInfo,
    ProgressEvent,
    Result,
    RunContext,
    StageStat,
)
from .session import Session


#: Minimum fraction of the pool's remaining budget any one component's
#: descent receives, however small the component (the "floor slice").
_POOL_FLOOR = 0.1


def _stats_delta(after, before):
    """Per-call solver statistics: ``after`` minus the ``before`` snapshot."""
    delta = SolverStats()
    delta.decisions = after.decisions - before.decisions
    delta.conflicts = after.conflicts - before.conflicts
    delta.propagations = after.propagations - before.propagations
    delta.restarts = after.restarts - before.restarts
    delta.learned = after.learned - before.learned
    delta.deleted = after.deleted - before.deleted
    delta.time_seconds = after.time_seconds - before.time_seconds
    return delta


class ComponentSessionPool:
    """One persistent :class:`Session` per kernel component.

    The pool kernelizes ``graph`` once at the clique lower bound
    (chi-preserving, like the whole-kernel incremental descent) — or
    takes the ``kernel`` a caller's reduce stage already built — and
    lazily owns one Session, hence one persistent solver, per kernel
    component.  :meth:`chromatic` runs the per-component K descents
    (largest component first) and recombines status, coloring, stats,
    query traces and per-component provenance into one :class:`Result`.

    The pool is reusable: sessions keep their learned clauses between
    calls, so a second :meth:`chromatic` (or a direct query on a member
    of :attr:`sessions`) rides the already-warm solvers.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[PipelineConfig] = None,
        on_progress: Optional[Callable[[ProgressEvent], None]] = None,
        cancel: Optional[Callable[[], bool]] = None,
        kernel: Optional[Kernel] = None,
    ):
        self.graph = graph
        self.config = config if config is not None else PipelineConfig()
        self._ctx = RunContext(on_progress=on_progress, cancel=cancel)
        self.kernel = kernel if kernel is not None else kernelize(graph)
        #: Component vertex lists in kernel numbering, largest first.
        self.components: List[List[int]] = sorted(
            self.kernel.components, key=lambda c: (-len(c), c))
        self._subgraphs: List[Graph] = [
            self.kernel.graph.subgraph(c) for c in self.components
        ]
        self.sessions: List[Session] = [
            Session(
                sub,
                config=self.config,
                on_progress=self._forward_progress(index),
                cancel=cancel,
            )
            for index, sub in enumerate(self._subgraphs)
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "ComponentSessionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release every component's persistent solver."""
        for session in self.sessions:
            session.close()

    @property
    def solvers_created(self) -> int:
        """Persistent solvers instantiated so far (at most one per component)."""
        return sum(session.solvers_created for session in self.sessions)

    def _forward_progress(self, index: int):
        if self._ctx.on_progress is None:
            return None

        def forward(event: ProgressEvent) -> None:
            self._ctx.emit(
                event.stage,
                f"[component {index}] {event.message}",
                k=event.k,
                status=event.status,
            )

        return forward

    # ------------------------------------------------------------------
    # Chromatic number
    # ------------------------------------------------------------------

    def chromatic(
        self,
        strategy: str = "linear",
        time_limit: Optional[float] = None,
        max_colors: Optional[int] = None,
    ) -> Result:
        """Chromatic number via per-component persistent-solver descents.

        Every component descends independently on its own Session; the
        results recombine as the max over components (against the clique
        bound the kernel was peeled at), the component colorings are
        unioned — disjoint components may share color classes — and the
        peeled vertices are greedily re-inserted.  ``max_colors`` caps
        the answer exactly: a cap below the clique bound, or below any
        single component's chromatic number, is UNSAT — and a component
        proving UNSAT ends the pool before the later components start
        (their traces are absent from the merged result).
        """
        t0 = time.monotonic()
        if time_limit is None:
            time_limit = self.config.solve.time_limit
        deadline = Deadline.after(time_limit)
        reduce_stage, info = reduce_report(self.kernel, self.config)
        if self.graph.num_vertices == 0:
            return Result(status=OPTIMAL, num_colors=0, coloring={},
                          pipeline=info)
        if max_colors is not None and max_colors <= 0:
            return Result(status=UNSAT, pipeline=info)
        if max_colors is not None and self.kernel.clique_bound > max_colors:
            # The kernel contains a clique larger than the cap.
            return Result(status=UNSAT, stages=[reduce_stage], pipeline=info)
        if not self.components:
            # Peeling dissolved the whole graph: replaying it greedily
            # colors within the clique bound, which is optimal.
            coloring = lift(self.kernel, [])
            return Result(
                status=OPTIMAL,
                num_colors=len(set(coloring.values())),
                coloring=coloring,
                stages=[reduce_stage],
                pipeline=info,
            )

        tracer = active_tracer()
        if tracer is not None:
            tracer.pool_begin(len(self.components))
        registry = get_registry()
        registry.inc("pool_runs_total")
        registry.observe("pool_components", len(self.components))
        # Budget split: weighted by component size (descent cost scales
        # with vertices), floored so a tiny component still gets a
        # searchable slice instead of being starved by a giant sibling.
        weights = [float(sub.num_vertices) for sub in self._subgraphs]

        # Sessions report *cumulative* stats; snapshot them so a reused
        # pool attributes only this call's work to this call's Result.
        baselines = [copy.copy(session.stats) for session in self.sessions]
        pairs = []
        for index in range(len(self.components)):
            # Sequential weighted allotment, recomputed against the
            # still-unsolved components' total weight: budget a fast
            # component left unused flows to the ones after it.
            limit = deadline.share(
                weights[index],
                sum(weights[index:]),
                floor_fraction=_POOL_FLOOR,
            )
            result = self._solve_component(index, limit, strategy, max_colors)
            pairs.append((index, result))
            if result.status == UNSAT:
                # Definitive: one component over the cap settles the
                # whole answer — don't pay for the rest (their traces
                # are simply absent from the merged result).
                break
        merged = self._merge(pairs, baselines, info, reduce_stage, t0)
        if tracer is not None:
            tracer.pool_end(merged.status, merged.num_colors)
        return merged

    def _solve_component(self, index: int, limit: Optional[float],
                         strategy: str, max_colors: Optional[int]) -> Result:
        """One component descent on this process's Session."""
        tracer = active_tracer()
        if tracer is not None:
            tracer.component_begin(index, self._subgraphs[index].num_vertices)
        self._ctx.emit(
            "pool",
            f"[component {index}] descent on "
            f"{self._subgraphs[index].num_vertices} vertices",
        )
        result = self.sessions[index].chromatic(
            strategy=strategy,
            time_limit=limit,
            max_colors=max_colors,
            # Colors below the global clique bound cannot change the
            # recombined max — no component descends past it.
            lower_bound=self.kernel.clique_bound,
        )
        if tracer is not None:
            tracer.component_end(index, result.status, result.num_colors)
        get_registry().inc("pool_component_total", status=result.status)
        return result

    # ------------------------------------------------------------------
    # Recombination
    # ------------------------------------------------------------------

    def _merge(
        self,
        pairs: List[Tuple[int, Result]],
        baselines: List,
        info: PipelineInfo,
        reduce_stage: StageStat,
        t0: float,
    ) -> Result:
        merged = Result(status=OPTIMAL, stages=[reduce_stage], pipeline=info)
        parts = []
        proved_lb = self.kernel.clique_bound
        for index, result in pairs:
            call_stats = _stats_delta(result.stats, baselines[index])
            trace = ComponentTrace(
                index=index,
                vertices=self._subgraphs[index].num_vertices,
                edges=self._subgraphs[index].num_edges,
                status=result.status,
                num_colors=result.num_colors,
                queries=list(result.queries),
                solvers_created=result.solvers_created,
                seconds=result.total_seconds,
                cancelled=result.cancelled,
            )
            merged.components.append(trace)
            merged.stats.merge(call_stats)
            merged.queries.extend(result.queries)
            merged.solvers_created += result.solvers_created
            merged.cancelled = merged.cancelled or result.cancelled
            merged.degraded = merged.degraded or result.degraded
            if result.status in (UNSAT, UNKNOWN):
                # A component over the cap (UNSAT) is definitive; an
                # inconclusive component leaves the whole answer open.
                if merged.status != UNSAT:
                    merged.status = result.status
                continue
            if result.lower_bound is not None:
                proved_lb = max(proved_lb, result.lower_bound)
            if result.status in (SAT, FEASIBLE) and merged.status == OPTIMAL:
                # A budget-degraded component caps the merged answer at
                # feasible: its coloring is verified, its optimum isn't.
                merged.status = FEASIBLE
            info.components_solved += 1
            parts.append((self.components[index], result.coloring))
        merged.stages.append(StageStat("solve", time.monotonic() - t0))
        if merged.status == UNSAT and not self._ctx.cancelled():
            # The pool's own early exit skipped the later components;
            # that is scheduling, not caller cancellation, and the UNSAT
            # answer is exact — the flags must not say otherwise.
            merged.cancelled = False
            merged.degraded = False
        if merged.status in (UNSAT, UNKNOWN):
            return merged
        coloring = lift(self.kernel, parts)
        merged.coloring = coloring
        merged.num_colors = len(set(coloring.values()))
        merged.upper_bound = merged.num_colors
        merged.lower_bound = (
            merged.num_colors if merged.status == OPTIMAL else proved_lb
        )
        return merged
