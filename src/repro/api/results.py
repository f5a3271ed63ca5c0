"""Structured results, progress events and run context for the public API.

Every query — whatever the problem kind or backend — returns one
:class:`Result`: the answer (status, colors, coloring), a per-stage
trace (:class:`StageStat`, in execution order, with wall seconds and
stage-specific details), aggregated solver statistics, the K-query
trace of descent-style searches, and :class:`Provenance` recording
exactly which problem, backend and configuration produced it.  The
stage trace is a run's only per-layer account: the kernel a ``reduce``
stage found, what ``simplify`` did to the clause database and what
``detect`` found are all stage details (``docs/observability.md``
lists them), and the stage switches are ``provenance.config``.

:class:`RunContext` is the side-channel a run carries: the progress
callback (:class:`ProgressEvent` per stage transition / K query), the
cancellation predicate (checked between stages and between queries —
a cancelled run returns its best-so-far answer with ``cancelled=True``
rather than raising), the run's one deadline and the shared
symmetry-detection cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.hooks import active_tracer
from ..resilience import Deadline
from ..resilience.faults import fire as _fire_fault
from ..sat.result import FEASIBLE, OPTIMAL, SAT, UNSAT, SolverStats
from ..symmetry.detect import SymmetryReport
from .problems import DECISION


@dataclass
class StageStat:
    """One executed pipeline stage: name, wall time, stage details."""

    name: str
    seconds: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class ProgressEvent:
    """One progress notification delivered to the ``on_progress`` callback."""

    stage: str
    message: str
    k: Optional[int] = None
    status: Optional[str] = None


@dataclass
class RunContext:
    """Per-run side channel: progress, cancellation, budget, caches.

    ``deadline`` is the run's :class:`~repro.resilience.Deadline`
    (unbounded by default).  The frame every run passes through
    (:func:`repro.api.pipeline.run_framed`) seeds it once from the
    configured time limit, and every stage, component and query spends
    from it instead of re-deriving elapsed-time arithmetic.  ``emit``
    doubles as the fault harness's ``stage:<name>`` injection point.
    """

    on_progress: Optional[Callable[[ProgressEvent], None]] = None
    cancel: Optional[Callable[[], bool]] = None
    detection_cache: Optional[Dict[Any, Any]] = None
    deadline: Deadline = field(default_factory=Deadline.unbounded)

    def emit(
        self,
        stage: str,
        message: str,
        k: Optional[int] = None,
        status: Optional[str] = None,
    ) -> None:
        """Deliver a progress event, if a callback is attached."""
        _fire_fault(f"stage:{stage}", message)
        tracer = active_tracer()
        if tracer is not None:
            tracer.stage(stage)
        if self.on_progress is not None:
            self.on_progress(ProgressEvent(stage, message, k=k, status=status))

    def cancelled(self) -> bool:
        """True when the caller has requested cancellation."""
        return bool(self.cancel and self.cancel())


@dataclass
class Provenance:
    """Where a result came from: problem, backend, configuration."""

    problem: str
    backend: str
    config: Dict[str, object] = field(default_factory=dict)


@dataclass
class Result:
    """The structured outcome of one API query.

    ``status`` is ``OPTIMAL`` / ``FEASIBLE`` / ``SAT`` / ``UNSAT`` /
    ``UNKNOWN``.  Decision queries answer ``SAT``/``UNSAT``;
    optimization queries answer ``OPTIMAL`` when the optimum was
    proved, or ``FEASIBLE`` when the budget expired (or the caller
    cancelled) mid-descent — then ``coloring`` is the *verified*
    best-so-far solution, ``degraded`` is True, and
    ``lower_bound``/``upper_bound`` carry whatever bounds the search
    had proved.  ``num_colors`` is the number of colors the reported
    ``coloring`` uses (the chromatic number when status is OPTIMAL on
    a chromatic problem).

    Contract: a FEASIBLE result's coloring is always proper (verified
    before it is returned); degradation can weaken *optimality*, never
    *correctness*.
    """

    status: str
    num_colors: Optional[int] = None
    coloring: Optional[Dict[int, int]] = None
    stages: List[StageStat] = field(default_factory=list)
    detection: Optional[SymmetryReport] = None
    stats: SolverStats = field(default_factory=SolverStats)
    # (k, status) trace of descent-style searches, in query order.
    queries: List[Tuple[int, str]] = field(default_factory=list)
    # Fresh solver instantiations this result cost: 1 for a persistent-
    # solver descent, one per solved kernel component for the 0-1 ILP
    # flow and CDCL decisions, one per query for scratch strategies.
    solvers_created: int = 0
    cancelled: bool = False
    # True when the run hit its budget (or was cancelled) before proving
    # optimality and returned a verified best-so-far answer instead.
    degraded: bool = False
    # Bounds the search had proved when it stopped: every k <=
    # lower_bound - 1 was refuted, a coloring with upper_bound colors
    # was verified.  OPTIMAL means the two met.
    lower_bound: Optional[int] = None
    upper_bound: Optional[int] = None
    provenance: Optional[Provenance] = None

    @property
    def solved(self) -> bool:
        """Definitive outcome: optimum proved or infeasibility proved."""
        return self.status in (OPTIMAL, UNSAT)

    @property
    def feasible(self) -> bool:
        """A verified coloring exists, optimal or not."""
        return self.status in (OPTIMAL, FEASIBLE, SAT)

    @property
    def chromatic_number(self) -> Optional[int]:
        """Alias of ``num_colors`` for chromatic-number queries."""
        return self.num_colors

    @property
    def backend(self) -> str:
        return self.provenance.backend if self.provenance else ""

    def stage(self, name: str) -> Optional[StageStat]:
        """The last executed stage with this name, if any."""
        for stat in reversed(self.stages):
            if stat.name == name:
                return stat
        return None

    def stage_seconds(self, *names: str) -> float:
        """Total wall seconds spent in the named stages (all, if none given)."""
        return sum(
            s.seconds for s in self.stages if not names or s.name in names
        )

    @property
    def encode_seconds(self) -> float:
        """Everything before the solver ran: encode + SBPs + simplify + detect."""
        return self.stage_seconds("encode", "sbp", "simplify", "detect")

    @property
    def solve_seconds(self) -> float:
        return self.stage_seconds("solve")

    @property
    def total_seconds(self) -> float:
        return self.stage_seconds()


def conclusive(result: Result, kind: str) -> bool:
    """Did this result definitively answer a problem of this kind?

    ``OPTIMAL``/``UNSAT`` are conclusive for every kind; ``SAT``
    additionally settles a *decision* query.  ``FEASIBLE`` — a verified
    but degraded best-so-far bound from a budget-expired descent — is
    deliberately *not* conclusive: a fallback backend or another racer
    may still improve on it.
    """
    return result.solved or (kind == DECISION and result.status == SAT)
