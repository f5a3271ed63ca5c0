"""Per-component Session pool: kernelization composed with persistence.

Kernelization (peeling at the clique bound + component split) and the
persistent-solver K-search have lived side by side since PR 2 without
composing: the incremental descent ran *one* solver over the whole
kernel, so learned clauses from one component polluted the search of
another and a hard component stalled the easy ones.
:class:`ComponentSessionPool` closes that gap — after the kernel splits,
every connected component gets its own persistent
:class:`~repro.api.Session` (one :class:`IncrementalKSearch` each), the
pool schedules the component descents largest-first, and the answers
recombine exactly:

``chi(G) = max(lb, max over components of chi(component))``

where ``lb`` is the clique bound the kernel was peeled at.  The merged
:class:`~repro.api.Result` carries one :class:`ComponentTrace` per
component (size, status, K-query trace, solver count) so callers can
see exactly which component cost what — and ``solvers_created`` equals
the number of components that needed a solver, the pool's contract.

Execution tiers (``SolveConfig.pool_jobs``):

* **sequential** (the default) — largest component first, with the
  pool's :class:`~repro.resilience.Deadline` shared via
  :meth:`Deadline.share` so unused budget flows forward;
* **process fan-out** (``jobs > 1``) — each component *subproblem*
  (graph + config + budget slice, never the live Session) is serialized
  to a worker process, with a per-component child deadline, a parent-
  side hard kill deadline, crash retry via
  :class:`~repro.resilience.RetryPolicy` (then an inline fallback solve,
  so a dying worker can never lose the answer), and a shared stop event
  that cancels siblings the moment one component proves UNSAT.

Whatever the tier, results recombine identically — the differential
harness (``tests/test_component_pool.py``) holds pool == single-solver
== scratch == exact-dsatur across all of them.  In process mode the
parent's sessions stay cold (worker state dies with the worker); the
pool stays reusable, but a second call re-solves rather than riding
warm solvers.

The ``cdcl-incremental`` backend routes chromatic problems through the
pool by default whenever the kernel is disconnected
(``SolveConfig.split_components``); the pool class itself is public API
for callers that want to keep the per-component sessions alive for
follow-up queries.
"""

from __future__ import annotations

import copy
import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..coloring.reduce import component_subgraphs, extend_coloring, peel_low_degree
from ..coloring.solve import PipelineInfo
from ..coloring.verify import check_proper
from ..graphs.cliques import clique_lower_bound
from ..graphs.graph import Graph
from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from ..resilience import Deadline, RetryPolicy
from ..resilience.faults import fire as _fire_fault
from ..resilience.faults import install_env_faults
from ..sat.result import FEASIBLE, OPTIMAL, SAT, UNKNOWN, UNSAT, SolverStats
from .config import PipelineConfig
from .results import ComponentTrace, ProgressEvent, Result, RunContext, StageStat
from .session import Session


#: Minimum fraction of the pool's remaining budget any one component's
#: descent receives, however small the component (the "floor slice").
_POOL_FLOOR = 0.1

#: Worker deaths are transient: retried this many times per component
#: before the parent solves the component inline instead.
_WORKER_RETRIES = 1


def _kernelize(graph: Graph):
    """Peel at the clique bound and split: ``(lb, kernel, component pairs)``."""
    lb = max(1, clique_lower_bound(graph)) if graph.num_vertices else 0
    kernel = peel_low_degree(graph, max(1, lb))
    pairs = component_subgraphs(kernel.graph, largest_first=True)
    return lb, kernel, pairs


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


def _component_worker(payload: Dict[str, object], conn, stop_event) -> None:
    """Process-tier worker entry: solve one component subproblem.

    The payload is the serialized *subproblem* — the component graph,
    the (frozen, picklable) pipeline config and the budget slice —
    never a live Session.  The full :class:`Result` object travels back
    over the pipe (every field is a plain picklable dataclass).
    ``stop_event`` is the cross-process cancel: the Session polls it
    inside ``CDCLSolver.solve`` via ``should_stop``, so a sibling's
    UNSAT interrupts this descent within one conflict batch.
    """
    try:
        install_env_faults()
        _fire_fault("racer", f"component:{payload['index']}")
        session = Session(
            payload["graph"],
            config=payload["config"],
            cancel=stop_event.is_set,
        )
        result = session.chromatic(
            strategy=payload["strategy"],
            time_limit=payload["time_limit"],
            max_colors=payload["max_colors"],
            lower_bound=payload["lower_bound"],
        )
        message: Tuple[str, object] = ("ok", result)
    except BaseException as exc:  # noqa: BLE001 - must report, not vanish
        message = ("error", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass
    finally:
        conn.close()


class _PoolFlight:
    """One in-flight component worker (``kill_at`` is the parent-side
    hard deadline on the *real* clock — the backstop that holds even
    when a fault skews the worker's own clock)."""

    __slots__ = ("index", "process", "conn", "kill_at", "retries")

    def __init__(self, index, process, conn, kill_at, retries):
        self.index = index
        self.process = process
        self.conn = conn
        self.kill_at = kill_at
        self.retries = retries


class ComponentSessionPool:
    """One persistent :class:`Session` per kernel component.

    The pool kernelizes ``graph`` once at the clique lower bound
    (chi-preserving, like the whole-kernel incremental descent), splits
    the kernel into connected components, and lazily owns one Session —
    hence one persistent solver — per component.  :meth:`chromatic`
    runs the per-component K descents (largest component first;
    ``jobs > 1`` fans them across worker processes) and recombines
    status, coloring, stats, query traces and per-component provenance
    into one :class:`Result`.

    The pool is reusable: in the sequential tier sessions keep their
    learned clauses between calls, so a second
    :meth:`chromatic` (or a direct query on a member of
    :attr:`sessions`) rides the already-warm solvers.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[PipelineConfig] = None,
        on_progress: Optional[Callable[[ProgressEvent], None]] = None,
        cancel: Optional[Callable[[], bool]] = None,
        jobs: int = 0,
        _kernelized: Optional[tuple] = None,
    ):
        self.graph = graph
        self.config = config if config is not None else PipelineConfig()
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        self.jobs = jobs
        self._ctx = RunContext(on_progress=on_progress, cancel=cancel)
        # Set when one component's answer settles the whole pool (a
        # definitive UNSAT): a later inline descent polls it through its
        # Session cancel predicate and stops.
        self._settled = False
        reduce_start = time.monotonic()
        if _kernelized is not None:
            # The backend probe already kernelized; don't redo the work.
            self.clique_bound, self.kernel, pairs = _kernelized
        else:
            self.clique_bound, self.kernel, pairs = _kernelize(graph)
        self._reduce_seconds = time.monotonic() - reduce_start
        #: Component vertex lists in kernel numbering, largest first.
        self.components: List[List[int]] = [vertices for vertices, _ in pairs]
        self._subgraphs: List[Graph] = [sub for _, sub in pairs]
        self.sessions: List[Session] = [
            Session(
                sub,
                config=self.config,
                on_progress=self._forward_progress(index),
                cancel=self._session_cancel,
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
        """Persistent solvers instantiated so far (at most one per component).

        Counts this process's sessions: component descents that ran in
        worker processes report their solver counts through the merged
        Result instead."""
        return sum(session.solvers_created for session in self.sessions)

    def _session_cancel(self) -> bool:
        """Sibling-settled stop OR the caller's own cancel predicate."""
        return self._settled or self._ctx.cancelled()

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
        proving UNSAT cancels every in-flight sibling (their traces are
        simply absent from, or marked cancelled in, the merged result).
        """
        t0 = time.monotonic()
        self._settled = False
        if time_limit is None:
            time_limit = self.config.solve.time_limit
        deadline = Deadline.after(time_limit)
        info = PipelineInfo(
            preprocess=self.config.simplify.enabled,
            reduce=True,
            original_vertices=self.graph.num_vertices,
            kernel_vertices=self.kernel.graph.num_vertices,
            peeled_vertices=self.graph.num_vertices
            - self.kernel.graph.num_vertices,
        )
        if self.graph.num_vertices == 0:
            return Result(status=OPTIMAL, num_colors=0, coloring={},
                          pipeline=info)
        if max_colors is not None and max_colors <= 0:
            return Result(status=UNSAT, pipeline=info)
        reduce_stage = StageStat(
            "reduce", self._reduce_seconds,
            {
                "clique_bound": self.clique_bound,
                "kernel_vertices": info.kernel_vertices,
                "peeled_vertices": info.peeled_vertices,
                "components": len(self.components),
            },
        )
        if max_colors is not None and self.clique_bound > max_colors:
            # The kernel contains a clique larger than the cap.
            return Result(status=UNSAT, stages=[reduce_stage], pipeline=info)
        if not self.components:
            # Peeling dissolved the whole graph: replaying it greedily
            # colors within the clique bound, which is optimal.
            coloring = extend_coloring(self.kernel, {})
            check_proper(self.graph, coloring)
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
        # (Process-tier workers report self-contained per-call stats, so
        # their baseline is the zero snapshot.)
        baselines = [copy.copy(session.stats) for session in self.sessions]
        indices = range(len(self.components))
        if self.jobs > 1 and len(self.components) > 1:
            pairs = self._run_processes(
                deadline, weights, strategy, max_colors)
            baselines = [SolverStats() for _ in self.components]
        else:
            pairs = []
            for index in indices:
                # Sequential weighted allotment, recomputed against the
                # still-unsolved components' total weight: budget a fast
                # component left unused flows to the ones after it.
                limit = deadline.share(
                    weights[index],
                    sum(weights[index:]),
                    floor_fraction=_POOL_FLOOR,
                )
                result = self._solve_component(
                    index, limit, strategy, max_colors)
                pairs.append((index, result))
                if result.status == UNSAT:
                    # Definitive: one component over the cap settles the
                    # whole answer — don't pay for the rest (their
                    # traces are simply absent from the merged result).
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
            lower_bound=self.clique_bound,
        )
        if tracer is not None:
            tracer.component_end(index, result.status, result.num_colors)
        get_registry().inc("pool_component_total", status=result.status)
        return result

    # ------------------------------------------------------------------
    # Process tier (the multi-core path)
    # ------------------------------------------------------------------

    def _run_processes(self, deadline: Deadline, weights: List[float],
                       strategy: str,
                       max_colors: Optional[int]) -> List[Tuple[int, Result]]:
        """Fan component subproblems across worker processes.

        Per component: a child deadline split from the pool's (clamped
        to the parent), a parent-side ``kill_at`` hard deadline on the
        real clock, retry-on-death via :class:`RetryPolicy`, and an
        inline fallback solve when retries run out — a crashing worker
        degrades throughput, never correctness.  A definitive UNSAT
        sets the shared stop event (workers poll it in-query) and the
        parent terminates the stragglers.
        """
        ctx = multiprocessing.get_context()
        stop_event = ctx.Event()
        retry_policy = RetryPolicy(max_retries=_WORKER_RETRIES)
        children = deadline.split(weights, floor_fraction=_POOL_FLOOR)
        registry = get_registry()
        tracer = active_tracer()
        pending = deque(range(len(self.components)))
        flights: Dict[int, _PoolFlight] = {}
        pairs: List[Tuple[int, Result]] = []
        unsat = False
        max_workers = min(self.jobs, len(self.components))

        def launch(index: int, retries: int) -> None:
            limit = children[index].remaining()
            if tracer is not None and retries == 0:
                tracer.component_begin(
                    index, self._subgraphs[index].num_vertices)
            self._ctx.emit(
                "pool",
                f"[component {index}] worker descent on "
                f"{self._subgraphs[index].num_vertices} vertices",
            )
            recv, send = ctx.Pipe(duplex=False)
            payload = {
                "index": index,
                "graph": self._subgraphs[index],
                "config": self.config,
                "strategy": strategy,
                "time_limit": limit,
                "max_colors": max_colors,
                "lower_bound": self.clique_bound,
            }
            process = ctx.Process(
                target=_component_worker,
                args=(payload, send, stop_event),
                daemon=True,
            )
            process.start()
            send.close()  # the parent only reads
            kill_at = Deadline.after(
                limit + max(1.0, 0.5 * limit) if limit is not None else None
            )
            flights[index] = _PoolFlight(index, process, recv, kill_at, retries)

        def settle(index: int, result: Result) -> None:
            nonlocal unsat
            pairs.append((index, result))
            if tracer is not None:
                tracer.component_end(index, result.status, result.num_colors)
            registry.inc("pool_component_total", status=result.status)
            if result.status == UNSAT:
                unsat = True
                stop_event.set()
                self._settled = True

        def fallback(index: int, note: str) -> None:
            """Solve the component inline with whatever budget is left."""
            self._ctx.emit("pool", f"[component {index}] {note}; "
                                   "solving inline in the parent")
            registry.inc("pool_worker_fallback_total")
            settle(index, self.sessions[index].chromatic(
                strategy=strategy,
                time_limit=children[index].remaining(),
                max_colors=max_colors,
                lower_bound=self.clique_bound,
            ))

        while pending or flights:
            if self._ctx.cancelled():
                # The caller's cancel reaches workers through the shared
                # event; they return verified best-so-far results, which
                # the loop keeps draining below.
                stop_event.set()
            while pending and len(flights) < max_workers and not unsat:
                launch(pending.popleft(), 0)
            if not flights:
                break
            self._wait(flights)
            for index in list(flights):
                flight = flights[index]
                if flight.conn.poll():
                    try:
                        outcome, value = flight.conn.recv()
                    except (EOFError, OSError):
                        outcome, value = "died", "worker pipe closed"
                    self._reap(flight)
                    del flights[index]
                    if outcome == "ok":
                        settle(index, value)
                    elif retry_policy.should_retry("died", flight.retries) \
                            and outcome == "died":
                        launch(index, flight.retries + 1)
                    else:
                        fallback(index, f"worker failed ({value})")
                elif not flight.process.is_alive():
                    # Died without reporting (crash, OOM, injected
                    # kill).  Drain first: a message may have raced in
                    # between poll() and the death check.
                    if flight.conn.poll():
                        continue  # handled by the poll branch next pass
                    self._reap(flight)
                    del flights[index]
                    registry.inc("pool_worker_deaths_total")
                    if retry_policy.should_retry("died", flight.retries):
                        launch(index, flight.retries + 1)
                    else:
                        fallback(index, "worker died twice")
                elif flight.kill_at.expired():
                    # The worker overran its slice past the grace — the
                    # cooperative deadline failed (hung solver, skewed
                    # clock).  Kill it; the inline fallback sees an
                    # exhausted child budget and degrades instantly to
                    # the verified greedy bound.
                    self._kill(flight)
                    self._reap(flight)
                    del flights[index]
                    registry.inc("pool_worker_kills_total")
                    fallback(index, "worker overran its deadline")
            if unsat:
                # One component settled the answer: stop paying for the
                # rest.  Their traces are absent, as in the sequential
                # early exit.
                pending.clear()
                for flight in flights.values():
                    self._kill(flight)
                    self._reap(flight)
                flights.clear()
        return pairs

    @staticmethod
    def _wait(flights: Dict[int, _PoolFlight]) -> None:
        """Block until a worker reports, dies, or a kill deadline nears."""
        timeout = 0.2
        for flight in flights.values():
            remaining = flight.kill_at.remaining()
            if remaining is not None:
                timeout = min(timeout, remaining)
        handles = [f.conn for f in flights.values()]
        handles += [f.process.sentinel for f in flights.values()]
        multiprocessing.connection.wait(handles, timeout=timeout)

    @staticmethod
    def _kill(flight: _PoolFlight) -> None:
        flight.process.terminate()
        flight.process.join(1.0)
        if flight.process.is_alive():
            flight.process.kill()
            flight.process.join(1.0)

    @staticmethod
    def _reap(flight: _PoolFlight) -> None:
        flight.conn.close()
        flight.process.join(10.0)
        if flight.process.is_alive():
            flight.process.kill()
            flight.process.join(1.0)
        flight.process.close()

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
        kernel_coloring: Dict[int, int] = {}
        proved_lb = self.clique_bound
        pairs = sorted(pairs, key=lambda pair: pair[0])
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
            for local, color in sorted(result.coloring.items()):
                kernel_coloring[self.components[index][local]] = color
        merged.stages.append(StageStat("solve", time.monotonic() - t0))
        if merged.status == UNSAT and not self._ctx.cancelled():
            # The pool's own early-exit cancelled the siblings; that is
            # scheduling, not caller cancellation, and the UNSAT answer
            # is exact — the flags must not say otherwise.
            merged.cancelled = False
            merged.degraded = False
        if merged.status in (UNSAT, UNKNOWN):
            return merged
        coloring = extend_coloring(self.kernel, kernel_coloring)
        check_proper(self.graph, coloring)
        merged.coloring = coloring
        merged.num_colors = len(set(coloring.values()))
        merged.upper_bound = merged.num_colors
        merged.lower_bound = (
            merged.num_colors if merged.status == OPTIMAL else proved_lb
        )
        return merged


def pooled_chromatic_result(problem, config, ctx):
    """The ``cdcl-incremental`` backend's pool route.

    Returns ``(result, kernelized)``.  ``result`` is ``None`` when
    pooling does not apply — the kernel is connected (the whole-kernel
    persistent descent is already optimal there), or the configuration
    uses a construction the growable per-component sessions cannot host
    (non-pairwise AMO, NU chains) — and the caller falls back to the
    whole-kernel incremental descent.  ``kernelized`` is the probe's
    ``(clique bound, kernel, component pairs)`` when it was computed,
    so the fallback can reuse it instead of kernelizing again.
    """
    from ..coloring.sat_pipeline import GROWABLE_SBP_KINDS

    if config.symmetry.sbp_kind not in GROWABLE_SBP_KINDS:
        return None, None
    if config.encode.amo != "pairwise":
        return None, None
    # Cheap disconnectedness probe first: the common connected case must
    # not pay for Session construction (and the kernelization is handed
    # to the pool, not redone).
    kernelized = _kernelize(problem.graph)
    if len(kernelized[2]) <= 1:
        return None, kernelized
    pool = ComponentSessionPool(
        problem.graph,
        config=config,
        on_progress=ctx.on_progress,
        cancel=ctx.cancel,
        jobs=config.solve.pool_jobs,
        _kernelized=kernelized,
    )
    strategy = config.solve.strategy or "linear"
    ctx.emit(
        "pool",
        f"kernel split into {len(pool.components)} components; "
        "per-component persistent solvers",
    )
    result = pool.chromatic(
        strategy=strategy,
        time_limit=ctx.deadline.remaining(),
        max_colors=problem.max_colors,
    )
    return result, kernelized
