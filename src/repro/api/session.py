"""Reusable solve sessions: many queries, one persistent solver.

A :class:`Session` answers *multiple* queries on one graph — decision at
K, decision at K−1, a full chromatic descent — on one persistent
:class:`~repro.coloring.sat_pipeline.IncrementalKSearch`, so learned
clauses, saved phases and activity carry across queries, not just
across the K values of a single search.

The DSATUR coloring, computed when the session is built, already
answers every budget at or above its own color count (the DSATUR
bound): such a decision is SAT with that coloring, verified like every
answer and recorded in :attr:`Session.queries`, and makes no solver
call.  Likewise a budget below the clique bound is UNSAT, as the
pipeline's reduce stage answers it.  The first query between the two
builds the solver, encoded once at the DSATUR bound — the oracle the
``cdcl-incremental`` descent runs — and every later query, in any
order, is an assumption query on it, so the encoding never has to
grow.  Every answer is finished as a pipeline run's is, by
:func:`~repro.api.pipeline.finish`.

Progress callbacks fire per query; the cancellation predicate is
polled between queries *and inside each query* (every few dozen
conflicts in the solver's search loop), and makes the session return
its best-so-far answer with ``cancelled=True`` — a single monster
UNSAT query no longer needs the batch layer's hard kill.
"""

from __future__ import annotations

import copy
import time
from typing import Callable, List, Optional, Tuple

from ..coloring.descent import Answer, descend
from ..coloring.sat_pipeline import CNF_SBP_KINDS, IncrementalKSearch
from ..graphs.cliques import clique_lower_bound
from ..graphs.coloring_heuristics import dsatur
from ..graphs.graph import Graph
from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from ..resilience import Deadline
from ..sat.result import FEASIBLE, OPTIMAL, SAT, UNKNOWN, UNSAT, SolverStats
from .config import PipelineConfig
from .pipeline import finish
from .results import ProgressEvent, Result, RunContext, StageStat


class Session:
    """Multiple coloring queries on one graph, one persistent solver.

    ``config`` supplies the SBP kind (any of
    :data:`~repro.coloring.sat_pipeline.CNF_SBP_KINDS`), whether the
    assumption-aware preprocessor runs, and the default time limit.
    The solver is created lazily at the first query the DSATUR and
    clique bounds do not settle, encoded at the DSATUR bound.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[PipelineConfig] = None,
        on_progress: Optional[Callable[[ProgressEvent], None]] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ):
        self.graph = graph
        self.config = config if config is not None else PipelineConfig()
        if self.config.symmetry.sbp_kind not in CNF_SBP_KINDS:
            raise ValueError(
                f"Session supports sbp_kind in {CNF_SBP_KINDS} (the "
                "clause-only encoding), got "
                f"{self.config.symmetry.sbp_kind!r}"
            )
        heuristic, self._bound = dsatur(graph)
        self._heuristic = {v: c + 1 for v, c in heuristic.items()}
        self._clique = clique_lower_bound(graph)
        self._ctx = RunContext(on_progress=on_progress, cancel=cancel)
        self._search: Optional[IncrementalKSearch] = None
        self.solvers_created = 0
        self.queries: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the persistent solver."""
        self._search = None

    @property
    def budget(self) -> int:
        """The DSATUR bound: the solver's color horizon.

        Budgets at or above it are answered by the DSATUR coloring.
        """
        return self._bound

    @property
    def stats(self) -> SolverStats:
        """Cumulative solver statistics over every query so far."""
        return self._search.stats if self._search is not None else SolverStats()

    def _should_stop(self):
        """The in-query stop predicate the solver polls mid-search.

        Only armed when a cancel callback exists — the predicate is
        polled every few dozen conflicts, so even one monster UNSAT
        query inside :meth:`chromatic` stays interruptible.
        """
        return self._ctx.cancelled if self._ctx.cancel is not None else None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _result(self, status, coloring, seconds, queries=(),
                cancelled=False) -> Result:
        return Result(
            status=status,
            num_colors=len(set(coloring.values())) if coloring else
            (0 if coloring == {} else None),
            coloring=coloring,
            stages=[StageStat("solve", seconds)],
            # Snapshot: the session's cumulative stats keep growing with
            # later queries, but each returned Result must stand still.
            stats=copy.copy(self.stats),
            queries=list(queries),
            solvers_created=self.solvers_created,
            cancelled=cancelled,
        )

    def _solve_k(self, k: int, deadline: Deadline) -> Answer:
        """One K query: the DSATUR coloring at or above the DSATUR bound,
        UNSAT below the clique bound, else the persistent solver, built
        at the DSATUR bound on first use.

        The session's oracle for both :meth:`decide` and the
        :meth:`chromatic` descent: it reports the query as progress
        events and metrics.
        """
        self._ctx.emit("query", f"deciding {k}-colorability", k=k)
        if k >= self._bound:
            answer: Answer = SAT, dict(self._heuristic), []
        elif k < self._clique:
            # A clique needs more colors; refuting it is a pigeonhole
            # proof, exponential for CDCL.
            answer = UNSAT, None, []
        else:
            if self._search is None:
                self._search = IncrementalKSearch(
                    self.graph,
                    self._bound,
                    sbp_kind=self.config.symmetry.sbp_kind,
                    preprocess=self.config.simplify.enabled,
                )
                self.solvers_created += 1
            answer = self._search.solve_k(
                k, time_limit=deadline.remaining(),
                should_stop=self._should_stop(),
            )
        status = answer[0]
        self.queries.append((k, status))
        get_registry().inc("session_queries_total", status=status)
        self._ctx.emit("query", f"K={k}: {status}", k=k, status=status)
        return answer

    def decide(self, k: int, time_limit: Optional[float] = None) -> Result:
        """Is the graph ``k``-colorable?  (SAT/UNSAT/UNKNOWN + coloring.)

        A ``k`` at or above the DSATUR bound is answered by the DSATUR
        coloring and one below the clique bound is UNSAT; any other is
        an assumption query on the one persistent solver, so budgets
        can be asked in any order.
        """
        t0 = time.monotonic()
        if time_limit is None:
            time_limit = self.config.solve.time_limit
        deadline = Deadline.after(time_limit)
        if k <= 0 or self.graph.num_vertices == 0:
            status = SAT if self.graph.num_vertices == 0 else UNSAT
            coloring = {} if status == SAT else None
            self.queries.append((k, status))
            return self._result(status, coloring, time.monotonic() - t0,
                                queries=[(k, status)])
        if self._ctx.cancelled():
            return self._result(UNKNOWN, None, time.monotonic() - t0,
                                cancelled=True)
        status, coloring, _ = self._solve_k(k, deadline)
        return finish(self.graph, False, self._result(
            status, coloring, time.monotonic() - t0, queries=[(k, status)],
            cancelled=status == UNKNOWN and self._ctx.cancelled()))

    def chromatic(
        self,
        strategy: str = "linear",
        time_limit: Optional[float] = None,
        max_colors: Optional[int] = None,
    ) -> Result:
        """Chromatic number by a K descent on the session's solver.

        The descent is :func:`repro.coloring.descent.descend` over the
        session's oracle, starting from the DSATUR coloring, so every
        query it asks lies below the DSATUR bound.  Every query is an
        assumption query, so the session stays fully reusable
        afterwards.  It is the descent a ``cdcl-incremental`` run with
        reduce off makes: the same queries on the same solver, with the
        same counters.  ``max_colors`` caps the answer (UNSAT below the
        chromatic number).
        """
        t0 = time.monotonic()
        if time_limit is None:
            time_limit = self.config.solve.time_limit
        deadline = Deadline.after(time_limit)
        if self.graph.num_vertices == 0:
            return finish(self.graph, True,
                          self._result(OPTIMAL, {}, time.monotonic() - t0))
        outcome = descend(
            self._solve_k,
            dict(self._heuristic),
            max(1, self._clique),
            strategy=strategy,
            deadline=deadline,
            should_stop=self._should_stop(),
            cap=max_colors,
            where="session",
        )
        status, coloring = outcome.status, outcome.coloring
        result = self._result(
            status, coloring, time.monotonic() - t0, queries=outcome.queries,
            cancelled=status not in (OPTIMAL, UNSAT) and self._ctx.cancelled())
        if coloring:
            result.lower_bound = outcome.lower_bound
        # A descent stopped by its budget (or a cancel) before the bounds
        # met degrades to FEASIBLE: the best-so-far coloring, verified,
        # with whatever bounds were proved.  Degradation weakens
        # optimality, never correctness.
        finish(self.graph, True, result)
        if result.degraded:
            tracer = active_tracer()
            if tracer is not None:
                tracer.degraded("session", FEASIBLE)
            get_registry().inc("session_degraded_total")
        return result
