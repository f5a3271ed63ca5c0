"""Deterministic fault injection for the chaos suite.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers armed at
named **injection points** scattered through the stack:

=================  ========================================================
``stage:<name>``   fired by :meth:`RunContext.emit` at every pipeline
                   progress event (``stage:encode``, ``stage:solve``,
                   ``stage:query``, ...) — the *raise-in-stage* hook
``attempt``        fired at the top of every batch attempt, with the
                   backend name as the detail — the *worker-kill* hook
``solver``         fired on every ``solve()`` call of solvers built
                   through the :mod:`repro.sat.factory` seam (RPR005's
                   chokepoint) — the *sleep-in-query* / hang hook
``racer``          fired at the top of every portfolio racer process
                   (detail: the racer's backend spec) — the
                   *kill-a-racer-mid-race* hook
=================  ========================================================

Each spec names its point, a fault ``kind`` (``raise`` / ``sleep`` /
``kill`` / ``skew``), the hit count ``at`` on which it fires (once),
and an optional substring ``match`` on the point's detail (e.g. only
kill attempts on the ``cdcl-incremental`` backend, so the fallback
chain can be watched recovering).  Counters are plan-local, and a
worker process re-arms the plan before every job it runs, so each
attempt starts over — which is exactly what makes "kill the first
attempt, let the retry through" scenarios expressible.

Installation is process-global (:func:`install_faults` /
:func:`clear_faults`); :meth:`FaultPlan.to_env` serializes a plan into
the ``REPRO_FAULTS`` environment variable, which every child process
started through :class:`~repro.resilience.worker.Worker` installs
afresh before each job it runs (batch attempts, racers).  A worker
runs several jobs in one process, so it takes a :func:`checkpoint` at
start and re-arms from it before every job: counters restart per
attempt, as they would in a fresh fork.
:func:`seeded_plan` derives a plan
deterministically from an integer seed — the chaos-smoke CI job's
nightly fresh-seed mode.

The injection points themselves are no-ops when no plan is installed
(one module-global ``None`` check), so production paths pay nothing.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .budget import current_clock, reset_clock, set_clock

#: Environment variable carrying a serialized plan into batch workers.
FAULTS_ENV = "REPRO_FAULTS"

FAULT_KINDS = ("raise", "sleep", "kill", "skew")


class FaultInjected(RuntimeError):
    """The exception a ``raise``-kind fault throws at its point."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where, what, when, and for whom.

    ``at`` is the 1-based hit count of the (point, match) pair on which
    the fault fires — exactly once per plan installation.  ``seconds``
    is the sleep duration (``sleep``) or the clock-skew delta
    (``skew``); ``match`` filters on the injection point's detail
    string (substring).
    """

    point: str
    kind: str
    at: int = 1
    seconds: float = 0.0
    match: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at < 1:
            raise ValueError(f"at is a 1-based hit count, got {self.at}")


class FaultPlan:
    """A set of specs plus their per-installation hit counters."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self._hits: List[int] = [0] * len(self.specs)
        self._fired: List[bool] = [False] * len(self.specs)

    # ---------------------------------------------------------- serialize
    def to_env(self) -> str:
        """JSON form for the ``REPRO_FAULTS`` environment variable."""
        return json.dumps([asdict(spec) for spec in self.specs], sort_keys=True)

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        decoded = json.loads(value)
        return cls([FaultSpec(**spec) for spec in decoded])

    # -------------------------------------------------------------- firing
    def fire(self, point: str, detail: str = "") -> None:
        """Count a hit at ``point``; trigger any spec whose turn it is."""
        for i, spec in enumerate(self.specs):
            if spec.point != point:
                continue
            if spec.match and spec.match not in detail:
                continue
            self._hits[i] += 1
            if self._fired[i] or self._hits[i] != spec.at:
                continue
            self._fired[i] = True
            self._trigger(spec, point, detail)

    @staticmethod
    def _trigger(spec: FaultSpec, point: str, detail: str) -> None:
        if spec.kind == "raise":
            raise FaultInjected(
                f"injected fault at {point}" + (f" ({detail})" if detail else "")
            )
        if spec.kind == "sleep":
            time.sleep(spec.seconds)
        elif spec.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif spec.kind == "skew":
            offset = spec.seconds
            set_clock(lambda: time.monotonic() + offset)


_active: Optional[FaultPlan] = None
_previous_factory: Optional[Callable[..., Any]] = None


def fire(point: str, detail: str = "") -> None:
    """Injection-point hook: free when no plan is installed."""
    if _active is not None:
        _active.fire(point, detail)


def install_faults(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (replacing any previous plan).

    If the plan arms the ``solver`` point, the solver factory seam
    (:func:`repro.sat.factory.set_solver_factory`) is wrapped so every
    factory-built solver fires ``solver`` on each ``solve()`` call —
    the in-query hang/sleep faults ride the RPR005 chokepoint instead
    of needing hooks inside the engines.
    """
    global _active, _previous_factory
    clear_faults()
    _active = plan
    if any(spec.point == "solver" for spec in plan.specs):
        from ..sat.factory import set_solver_factory

        def faulty_factory(*args: Any, **kwargs: Any) -> Any:
            assert _previous_factory is not None
            solver = _previous_factory(*args, **kwargs)
            inner_solve = solver.solve

            def solve(*sargs: Any, **skwargs: Any) -> Any:
                fire("solver")
                return inner_solve(*sargs, **skwargs)

            solver.solve = solve
            return solver

        _previous_factory = set_solver_factory(faulty_factory)


def install_env_faults() -> None:
    """Install the ``REPRO_FAULTS`` plan, if the environment carries one.

    Every :class:`~repro.resilience.worker.Worker` child calls this
    before each job it runs (through :func:`checkpoint`), so a
    serialized plan reaches every process tier the same way; the chaos
    plugin calls it on import, which also arms the parent and
    ``--jobs 0`` runs.
    """
    raw = os.environ.get(FAULTS_ENV)
    if raw:
        install_faults(FaultPlan.from_env(raw))


def checkpoint() -> Callable[[], None]:
    """Snapshot this process's fault state; the result re-arms from it.

    The returned call reinstalls the plan active now with the hit
    counters it has now, puts back the clock the seam holds now, and
    then installs the ``REPRO_FAULTS`` plan afresh, if the environment
    carries one.  A :class:`~repro.resilience.worker.Worker` child takes
    the snapshot when it starts and re-arms before every job, so each
    job sees the faults, counters and clock a fresh fork of the parent
    would have seen — a ``skew`` fired in one job never reaches the next.
    """
    plan = _active
    hits = [] if plan is None else list(plan._hits)
    fired = [] if plan is None else list(plan._fired)
    clock = current_clock()

    def rearm() -> None:
        if plan is None:
            clear_faults()
        else:
            install_faults(plan)
            plan._hits[:] = hits
            plan._fired[:] = fired
        set_clock(clock)
        install_env_faults()

    return rearm


def clear_faults() -> None:
    """Remove the active plan and undo its seams (factory, clock)."""
    global _active, _previous_factory
    _active = None
    if _previous_factory is not None:
        from ..sat.factory import set_solver_factory

        set_solver_factory(_previous_factory)
        _previous_factory = None
    reset_clock()


def seeded_plan(seed: int) -> FaultPlan:
    """Derive one fault scenario deterministically from ``seed``.

    The chaos-smoke job runs the matrix with a fixed seed on PRs and a
    fresh seed nightly; the scenario (fault class, hit count, duration)
    is a pure function of the seed, so any nightly failure replays
    locally from the seed alone.
    """
    rng = random.Random(seed)
    scenario = rng.choice(
        ("stage-raise", "solver-sleep", "attempt-kill", "skew", "racer-kill")
    )
    specs: Dict[str, FaultSpec] = {
        "stage-raise": FaultSpec(
            point=f"stage:{rng.choice(('encode', 'solve', 'query'))}",
            kind="raise",
            at=rng.randint(1, 3),
        ),
        "solver-sleep": FaultSpec(
            point="solver",
            kind="sleep",
            at=rng.randint(1, 3),
            seconds=rng.choice((0.5, 1.0, 2.0)),
        ),
        "attempt-kill": FaultSpec(
            point="attempt", kind="kill", at=1, match="cdcl"
        ),
        "skew": FaultSpec(
            point="solver",
            kind="skew",
            at=1,
            seconds=rng.choice((5.0, 30.0)),
        ),
        "racer-kill": FaultSpec(
            point="racer", kind="kill", at=1, match="cdcl"
        ),
    }
    return FaultPlan([specs[scenario]])
