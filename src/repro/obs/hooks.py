"""The tracing seam: ambient tracer install plus the typed emit facade.

Design (docs/observability.md): the solver never knows whether tracing
is on.  ``repro.sat.factory.new_solver`` — the one construction
chokepoint the static checker already enforces (RPR005) — asks
:func:`active_tracer` and, when one is installed, attaches it to the
fresh solver.  A detached solver carries ``tracer = None`` and the hot
loop pays exactly one attribute test per conflict; everything else
(locking, varint encoding, file IO) lives behind that branch.

Cold-path call sites (K-search, sessions, pipeline stages, the
portfolio race) call :func:`active_tracer` directly at each event — a
function call is irrelevant there, and it keeps those layers free of
tracer plumbing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Union

from . import events as ev
from .trace import TraceWriter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from typing import BinaryIO


class Tracer:
    """Typed, thread-safe emit facade shared by every attached solver.

    One Tracer serializes all emissions into one record stream; each
    attached solver gets a small integer id so the streams of several
    solvers (a scratch descent's per-query solvers, a decision's
    per-component solvers) remain attributable.
    """

    def __init__(self, writer: TraceWriter) -> None:
        self._writer = writer
        self._lock = threading.Lock()
        self._next_solver_id = 0

    # -- attachment ----------------------------------------------------

    def attach(self, solver: object) -> int:
        """Assign the next solver id and point the solver at this tracer."""
        with self._lock:
            self._next_solver_id += 1
            sid = self._next_solver_id
        solver.tracer = self  # type: ignore[attr-defined]
        solver.tracer_id = sid  # type: ignore[attr-defined]
        return sid

    def emit(self, event: int, *fields: int) -> None:
        """Serialize one record (the single funnel every helper uses)."""
        with self._lock:
            self._writer.emit(event, fields)

    def close(self) -> None:
        """Flush and close the underlying trace writer."""
        with self._lock:
            self._writer.close()

    # -- solver-level events (hot path enters through these) -----------

    def solve_begin(self, sid: int, assumptions: int) -> None:
        """A ``solve()`` call started with this many assumptions."""
        self.emit(ev.SOLVE_BEGIN, sid, assumptions)

    def solve_end(self, sid: int, status: str, conflicts: int,
                  decisions: int, propagations: int, restarts: int,
                  learned: int, deleted: int) -> None:
        """A ``solve()`` call finished; counters are per-call run deltas."""
        self.emit(ev.SOLVE_END, sid, ev.status_code(status), conflicts,
                  decisions, propagations, restarts, learned, deleted)

    def conflict(self, sid: int, level: int, lbd: int,
                 propagations: int) -> None:
        """A conflict at ``level`` (learned LBD, props since the last)."""
        self.emit(ev.CONFLICT, sid, level, lbd, propagations)

    def restart(self, sid: int, conflicts: int) -> None:
        """A restart after ``conflicts`` conflicts in the current call."""
        self.emit(ev.RESTART, sid, conflicts)

    def db_reduce(self, sid: int, deleted: int, kept: int) -> None:
        """A learned-clause DB reduction: ``deleted`` dropped, ``kept`` left."""
        self.emit(ev.DB_REDUCE, sid, deleted, kept)

    # -- search / session lifecycle ------------------------------------

    def k_query_begin(self, k: int) -> None:
        """A K-colorability probe started."""
        self.emit(ev.K_QUERY_BEGIN, k)

    def k_query_end(self, k: int, status: str, conflicts: int,
                    decisions: int, propagations: int,
                    restarts: int) -> None:
        """A K probe answered; counters are the query's run deltas."""
        self.emit(ev.K_QUERY_END, k, ev.status_code(status), conflicts,
                  decisions, propagations, restarts)

    def stage(self, stage: str) -> None:
        """A pipeline stage transition (coded via ``STAGE_CODES``)."""
        self.emit(ev.STAGE, ev.stage_code(stage))

    # -- portfolio racing ----------------------------------------------

    def race_begin(self, racers: int) -> None:
        """A portfolio race started with this many racer processes."""
        self.emit(ev.RACE_BEGIN, racers)

    def race_bound(self, racer: int, kind: str, value: int) -> None:
        """A racer published a bound (``kind`` is ``"ub"`` or ``"lb"``)."""
        self.emit(ev.RACE_BOUND, racer, 0 if kind == "ub" else 1, value)

    def race_end(self, winner: Optional[int], status: str,
                 cancelled: int) -> None:
        """The race settled; ``cancelled`` racers were stopped mid-run."""
        # winner is shifted by one on the wire: 0 means "no winner".
        self.emit(ev.RACE_END, 0 if winner is None else winner + 1,
                  ev.status_code(status), cancelled)

    # -- resilience events ---------------------------------------------

    def deadline_expired(self, where: str) -> None:
        """A budget ran out at ``where`` (coded via ``WHERE_CODES``)."""
        self.emit(ev.DEADLINE_EXPIRED, ev.where_code(where))

    def degraded(self, where: str, status: str) -> None:
        """A verified best-so-far answer replaced the unproven optimum."""
        self.emit(ev.DEGRADED, ev.where_code(where), ev.status_code(status))


_TRACER: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is off (the default)."""
    return _TRACER


def install_tracer(tracer: Tracer) -> Optional[Tracer]:
    """Install ``tracer`` as ambient; returns the one it displaced."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def uninstall_tracer(previous: Optional[Tracer] = None) -> None:
    """Clear the ambient tracer (or restore ``previous``)."""
    global _TRACER
    _TRACER = previous


@contextmanager
def tracing(target: Union[str, "BinaryIO"]) -> Iterator[Tracer]:
    """Trace everything in the block to ``target`` (path or binary file).

    Installs a fresh :class:`Tracer` over a :class:`TraceWriter`,
    restores whatever was installed before on exit, and closes the
    writer.  Solvers constructed inside the block are attached by the
    factory; solvers that already exist keep running untraced.
    """
    tracer = Tracer(TraceWriter(target))
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        uninstall_tracer(previous)
        tracer.close()
