"""Reusable solve sessions: many queries, one persistent solver.

A :class:`Session` owns the persistent
:class:`~repro.coloring.sat_pipeline.IncrementalKSearch` for one graph
and answers *multiple* queries against it — decision at K, decision at
K−1, a full chromatic descent — all on the same solver, so learned
clauses, saved phases and activity carry across queries, not just
across the K values of a single search.

The encoding grows *upward* too: asking about a budget above the
currently encoded horizon adds the new color groups to the live solver
(:meth:`IncrementalKSearch.grow_to`) instead of re-encoding — the
ROADMAP's "incremental encoding growth upward" item.  Downward queries
are plain assumption queries, so a lowered budget can always be raised
back.

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
from ..coloring.sat_pipeline import IncrementalKSearch
from ..coloring.verify import check_proper
from ..graphs.cliques import clique_lower_bound
from ..graphs.coloring_heuristics import dsatur
from ..graphs.graph import Graph
from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from ..resilience import Deadline
from ..sat.result import FEASIBLE, OPTIMAL, SAT, UNKNOWN, UNSAT
from .config import PipelineConfig
from .results import ProgressEvent, Result, RunContext, StageStat


class Session:
    """Multiple coloring queries on one graph, one persistent solver.

    ``config`` supplies the encoding/simplification knobs (growth-safe
    SBPs, and the assumption-aware preprocessor with every variable
    frozen, which keeps the formula equivalent) and the default time
    limit.
    The solver is created lazily on the first query, encoded at that
    query's horizon, and only ever *grows* afterwards.
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
        from ..coloring.sat_pipeline import GROWABLE_SBP_KINDS

        if self.config.symmetry.sbp_kind not in GROWABLE_SBP_KINDS:
            raise ValueError(
                f"Session supports sbp_kind in {GROWABLE_SBP_KINDS} (the "
                "growth-safe subset), got "
                f"{self.config.symmetry.sbp_kind!r}"
            )
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
        """The currently encoded color horizon (0 before the first query)."""
        return self._search.max_k if self._search is not None else 0

    @property
    def stats(self):
        """Cumulative solver statistics over every query so far."""
        if self._search is None:
            from ..sat.result import SolverStats

            return SolverStats()
        return self._search.stats

    def _ensure_search(self, k_needed: int) -> IncrementalKSearch:
        """Create the solver at ``k_needed`` colors, or grow it to reach."""
        if self._search is None:
            self._search = IncrementalKSearch(
                self.graph,
                max(k_needed, 1),
                sbp_kind=self.config.symmetry.sbp_kind,
                preprocess=self.config.simplify.enabled,
                growable=True,
            )
            self.solvers_created += 1
        elif k_needed > self._search.max_k:
            self._ctx.emit(
                "grow",
                f"raising color budget {self._search.max_k} -> {k_needed} "
                "(adding color groups in place)",
                k=k_needed,
            )
            self._search.grow_to(k_needed)
        return self._search

    def raise_budget(self, new_max: int) -> None:
        """Grow the encoded color horizon to ``new_max`` without re-encoding."""
        if new_max <= 0:
            raise ValueError(f"budget must be positive, got {new_max}")
        self._ensure_search(new_max)

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

    def _solve_k(self, horizon: int, k: int, deadline: Deadline) -> Answer:
        """One K query on the persistent solver, encoded at ``horizon``.

        The session's oracle for both :meth:`decide` and the
        :meth:`chromatic` descent: it reports the query as progress
        events and metrics, and reads the budget only after the solver
        is built or grown.
        """
        search = self._ensure_search(horizon)
        self._ctx.emit("query", f"deciding {k}-colorability", k=k)
        status, coloring, failed = search.solve_k(
            k, time_limit=deadline.remaining(), should_stop=self._should_stop()
        )
        self.queries.append((k, status))
        get_registry().inc("session_queries_total", status=status)
        self._ctx.emit("query", f"K={k}: {status}", k=k, status=status)
        return status, coloring, failed

    def decide(self, k: int, time_limit: Optional[float] = None) -> Result:
        """Is the graph ``k``-colorable?  (SAT/UNSAT/UNKNOWN + coloring.)

        A ``k`` above the current horizon grows the encoding in place; a
        ``k`` below it is a plain assumption query — so interleaving
        budgets in any order keeps the one persistent solver.
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
        status, coloring, _ = self._solve_k(k, k, deadline)
        if coloring is not None:
            check_proper(self.graph, coloring)
        return self._result(status, coloring, time.monotonic() - t0,
                            queries=[(k, status)],
                            cancelled=status == UNKNOWN and self._ctx.cancelled())

    def chromatic(
        self,
        strategy: str = "linear",
        time_limit: Optional[float] = None,
        max_colors: Optional[int] = None,
    ) -> Result:
        """Chromatic number by a K descent on the session's solver.

        The descent is :func:`repro.coloring.descent.descend` over the
        session's oracle.  Unlike the one-shot descent, nothing is
        disabled permanently — every query is assumption-based, so the
        session stays fully reusable (including budget raises)
        afterwards.  ``max_colors`` caps the answer (UNSAT below the
        chromatic number); the solver is encoded at the smaller of the
        DSATUR bound and the cap.
        """
        t0 = time.monotonic()
        if time_limit is None:
            time_limit = self.config.solve.time_limit
        deadline = Deadline.after(time_limit)
        if self.graph.num_vertices == 0:
            return self._result(OPTIMAL, {}, time.monotonic() - t0)
        heuristic, ub = dsatur(self.graph)
        horizon = ub if max_colors is None else min(ub, max_colors)
        outcome = descend(
            lambda k, budget: self._solve_k(horizon, k, budget),
            {v: c + 1 for v, c in heuristic.items()},
            max(1, clique_lower_bound(self.graph)),
            strategy=strategy,
            deadline=deadline,
            should_stop=self._should_stop(),
            cap=max_colors,
            where="session",
        )
        status, coloring = outcome.status, outcome.coloring
        cancelled = status not in (OPTIMAL, UNSAT) and self._ctx.cancelled()
        # A descent stopped by its budget (or a cancel) before the bounds
        # met degrades to FEASIBLE: the best-so-far coloring, re-verified
        # here, with whatever bounds were proved.  Degradation weakens
        # optimality, never correctness.
        degraded = status == SAT
        if degraded:
            status = FEASIBLE
            tracer = active_tracer()
            if tracer is not None:
                tracer.degraded("session", FEASIBLE)
            get_registry().inc("session_degraded_total")
        result = self._result(status, coloring, time.monotonic() - t0,
                              queries=outcome.queries, cancelled=cancelled)
        result.degraded = degraded
        if coloring:
            check_proper(self.graph, coloring)
            result.upper_bound = len(set(coloring.values()))
            result.lower_bound = outcome.lower_bound
        return result
