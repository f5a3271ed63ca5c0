"""repro.resilience — one budget/fault model for the whole solve stack.

Before this package, every execution tier managed time and failure its
own way: the Pipeline recomputed ``time_limit - elapsed`` by hand per
component and the batch runner hard-coded its retry-on-death counter.
This package centralizes those concerns:

* :class:`Deadline` (alias :data:`Budget`) — a monotonic-clock budget
  with ``remaining()``/``expired()``, child deadlines and a swappable
  clock seam (the clock-skew fault hook).  All deadline arithmetic in
  the repo goes through it — enforced by the static checker's RPR007
  rule.
* :class:`RetryPolicy` — bounded retries with exponential backoff,
  deterministic jitter and transient-vs-fatal failure classification;
  the batch runner's retry and fallback-promotion decisions run
  through one policy object.
* :mod:`~repro.resilience.wal` — write-ahead-log JSONL helpers
  (flush+fsync per record, truncated-tail detection) behind the batch
  runner's crash-safe ``--resume``.
* :mod:`~repro.resilience.faults` — the deterministic fault-injection
  harness: seeded injection points (raise-in-stage, sleep-in-query,
  worker kill, clock skew) installable process-wide and, through the
  ``REPRO_FAULTS`` environment variable, in every child process.
* :class:`Worker` / :func:`wait_any` — the one way to run work in a
  child process, one job after another: fault re-arming per job, a
  parent-side kill deadline per job and a once-only outcome per job
  (``ok`` / ``error`` / ``died`` / ``killed``) for the batch fleet and
  the portfolio race.

The package depends only on the standard library and the stdlib-only
:mod:`repro.obs`, so every layer of the repo (``sat/``, ``pb/``,
``ilp/``, ``coloring/``, ``api/``, ``batch/``) can import it without
cycles.
"""

from .budget import Budget, Deadline, reset_clock, set_clock
from .faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    clear_faults,
    fire,
    install_env_faults,
    install_faults,
    seeded_plan,
)
from .retry import RetryPolicy
from .wal import append_record, corrupt_tail, fsync_file, read_wal
from .worker import Worker, wait_any

__all__ = [
    "Budget",
    "Deadline",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "Worker",
    "append_record",
    "clear_faults",
    "corrupt_tail",
    "fire",
    "fsync_file",
    "install_env_faults",
    "install_faults",
    "read_wal",
    "reset_clock",
    "set_clock",
    "wait_any",
]
