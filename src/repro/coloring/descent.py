"""The K-descent driver behind every chromatic-number search by K queries.

The paper's repeated-SAT route (Sections 2.3 and 4.1) finds the
chromatic number by "repeatedly solving instances of the k-coloring
using a SAT solver, with the value of k being updated after each call".
:func:`descend` is that loop, written once.  Its callers differ only in
the *oracle* answering one K query, a callable
``decide(k, deadline) -> (status, coloring, failed_colors)``:

* one persistent :class:`~repro.coloring.sat_pipeline.IncrementalKSearch`
  (:func:`~repro.coloring.sat_pipeline.chromatic_number_sat`, and a
  :class:`~repro.api.Session`, which builds it at the DSATUR bound and
  keeps it across queries), asked every K under assumptions whatever
  the strategy,
* one fresh solver per query (``chromatic_number_sat(incremental=False)``),
* the not-equals CSP search of the NECSP baseline
  (:func:`~repro.coloring.necsp.necsp_chromatic_number`).

The oracle receives the run's :class:`~repro.resilience.Deadline` and
reads ``deadline.remaining()`` at the moment it calls the solver, after
any encoding and preprocessing, so those count against the budget too.

The driver owns the policy: linear or binary stepping, the jump of the
lower bound past an UNSAT core over colors, the cap query, the deadline
and stop checks before every query, the query trace and the
``deadline_expired`` record.  It hands each answered query to an
optional ``on_query(k, status)`` as it appends it to the trace; the
``cdcl-*`` backends turn that into one ``query`` progress event per
query, from which a portfolio racer publishes its bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from ..resilience import Deadline
from ..sat.result import OPTIMAL, SAT, UNKNOWN, UNSAT

STRATEGIES = ("linear", "binary")

Coloring = Dict[int, int]
Answer = Tuple[str, Optional[Coloring], List[int]]
Oracle = Callable[[int, Deadline], Answer]


@dataclass
class DescentOutcome:
    """What :func:`descend` proved.

    ``status`` is OPTIMAL when the bounds met; SAT when the deadline, the
    stop predicate or an UNKNOWN answer ended the descent first (then
    ``coloring`` is the best one found); UNSAT when the cap is below the
    chromatic number; UNKNOWN when the descent stopped before settling a
    cap the incumbent exceeded (no coloring within the cap is known).
    ``lower_bound`` is the proved lower bound and ``queries`` the
    ``(k, status)`` trace in query order.
    """

    status: str
    coloring: Optional[Coloring]
    lower_bound: int
    queries: List[Tuple[int, str]] = field(default_factory=list)


def _num_colors(coloring: Coloring) -> int:
    return len(set(coloring.values()))


def _note_deadline_expired(where: str) -> None:
    """Record a budget expiry as a traced event and a counter."""
    tracer = active_tracer()
    if tracer is not None:
        tracer.deadline_expired(where)
    get_registry().inc("deadline_expired_total", where=where)


def descend(
    decide: Oracle,
    coloring: Coloring,
    lower_bound: int,
    deadline: Deadline,
    strategy: str = "linear",
    should_stop: Optional[Callable[[], bool]] = None,
    cap: Optional[int] = None,
    where: str = "descent",
    on_query: Optional[Callable[[int, str], None]] = None,
) -> DescentOutcome:
    """Tighten ``coloring`` down to the chromatic number.

    ``coloring`` is the heuristic incumbent; its color count is the
    starting upper bound.  ``lower_bound`` is a proved lower bound (a
    clique bound).  ``strategy`` ``"linear"`` asks one below the
    incumbent each time; ``"binary"`` bisects between the bounds.  An
    UNSAT core lifts the lower bound to its smallest color, since every
    K below it is dead too.

    ``cap`` is the problem's color limit.  A cap below ``lower_bound`` is
    UNSAT without a query; a cap below the incumbent's color count is
    asked first, and its coloring (if any) seeds the descent.  Before
    every query the driver checks ``deadline`` (recording an expiry under
    ``where``) and ``should_stop``.  ``on_query(k, status)`` is called
    after every answered query, in the order of ``queries``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    queries: List[Tuple[int, str]] = []

    def ask(k: int) -> Answer:
        if deadline.expired():
            _note_deadline_expired(where)
            return UNKNOWN, None, []
        if should_stop is not None and should_stop():
            return UNKNOWN, None, []
        answer = decide(k, deadline)
        queries.append((k, answer[0]))
        if on_query is not None:
            on_query(k, answer[0])
        return answer

    lo, hi, best = lower_bound, _num_colors(coloring), coloring
    if cap is not None and cap < lo:
        return DescentOutcome(UNSAT, None, lo, queries)
    if cap is not None and hi > cap:
        status, found, _ = ask(cap)
        if status == UNSAT:
            return DescentOutcome(UNSAT, None, cap + 1, queries)
        if status != SAT or found is None:
            return DescentOutcome(UNKNOWN, None, lo, queries)
        best, hi = found, _num_colors(found)
    while lo < hi:
        k = hi - 1 if strategy == "linear" else (lo + hi) // 2
        status, found, failed = ask(k)
        if status == UNSAT:
            lo = max(k + 1, min(failed, default=0))
        elif status == SAT and found is not None:
            best, hi = found, min(_num_colors(found), k)
        else:
            return DescentOutcome(SAT, best, lo, queries)
    return DescentOutcome(OPTIMAL, best, hi, queries)
