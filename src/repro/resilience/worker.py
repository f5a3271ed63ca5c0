"""One way to run work in a child process.

:class:`Worker` is the process primitive behind every tier that runs
work out of process: the batch fleet (at most ``jobs`` workers per run,
each running one attempt after another) and the ``portfolio`` race (one
per racer).  It owns what those tiers share:

* **the child side** — drop the tracer inherited from the parent once,
  then for each job: re-arm the faults
  (:func:`~repro.resilience.faults.checkpoint`: the ``REPRO_FAULTS``
  plan afresh, an inherited plan back at its state at fork, the clock
  unskewed), run ``target(*args)``, send one message over the
  worker's pipe and wait for the next job.  A forked child's copy of
  the parent's buffered trace writer still holds the parent's
  unflushed bytes; dropping it unflushed keeps the parent's trace
  file intact;
* **the kill rule** — a job given ``limit`` seconds is killed at
  ``limit + max(1.0, 0.5 * limit)`` from the job's start on the
  parent's clock, which a fault skewing the child's clock cannot
  stretch (``limit=None``: never killed);
* **the outcome protocol** — :meth:`Worker.poll` reports each job
  exactly once, as one of

  ========================  =============================================
  ``("ok", value)``         ``target`` returned ``value``
  ``("error", "Type: m")``  ``target`` raised (``type(exc).__name__: m``)
  ``("died", exitcode)``    the child exited without a message
  ``("killed", None)``      the parent killed it at its kill deadline
  ========================  =============================================

  After ``ok`` or ``error`` the worker is idle: :meth:`Worker.submit`
  hands it the next job and :meth:`Worker.close` ends it.  After
  ``died`` or ``killed`` its process is reaped and the worker is gone.

Callers keep only their own policy — what to retry, what to fall back
to, when to :meth:`~Worker.stop` the rest — and block on
:func:`wait_any`.  Targets are module-level callables with picklable
arguments (rule RPR006), so the platform's default start method works:
fork on Linux, spawn on macOS and Windows, where forcing fork hits the
objc fork-safety abort.  The first job reaches the child through the
process arguments, so it may carry objects that only cross by
inheritance (the portfolio's ``Event``, ``Value`` and ``Queue``); a
submitted job is pickled over the pipe.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..obs.hooks import uninstall_tracer
from .budget import Deadline
from .faults import checkpoint

#: What :meth:`Worker.poll` reports: ``(kind, value)``.
Outcome = Tuple[str, Any]

#: One job for the child: ``(target, args)``; ``None`` tells it to exit.
Job = Optional[Tuple[Callable[..., Any], Tuple[Any, ...]]]


def _child(conn: Any, parent_end: Any, target: Callable[..., Any],
           args: Tuple[Any, ...]) -> None:
    """Child side: run jobs, one message each, until told to exit."""
    # A fork inherits the parent's end of this pipe; holding it would
    # keep an idle child waiting for a job after the parent is gone.
    parent_end.close()
    uninstall_tracer()
    rearm = checkpoint()
    job: Job = (target, args)
    while job is not None:
        target, args = job
        try:
            rearm()
            message: Outcome = ("ok", target(*args))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            message = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(message)
            job = conn.recv()
        except (EOFError, OSError):
            break  # the parent stopped listening
    conn.close()


class Worker:
    """A child process running jobs one after another, each reported once.

    The first job, ``target(*args)``, starts with the worker; later ones
    come through :meth:`submit`.  ``limit`` is a job's own budget in
    seconds; the parent kills the child at ``limit + max(1.0, 0.5 *
    limit)`` from the job's start.  ``started`` is the current job's
    start on the monotonic clock.
    """

    def __init__(self, target: Callable[..., Any], args: Sequence[Any] = (),
                 limit: Optional[float] = None) -> None:
        ctx = multiprocessing.get_context()
        self._conn, child_end = ctx.Pipe()
        self._process: Optional[BaseProcess] = ctx.Process(
            target=_child, args=(child_end, self._conn, target, tuple(args)),
            daemon=True)
        self._process.start()
        child_end.close()  # the child's end lives in the child only
        self._begin(limit)

    @property
    def idle(self) -> bool:
        """Alive and between jobs: :meth:`submit` or :meth:`close` it."""
        return self._process is not None and not self._busy

    def submit(self, target: Callable[..., Any], args: Sequence[Any] = (),
               limit: Optional[float] = None) -> None:
        """Run ``target(*args)`` as this idle worker's next job."""
        if not self.idle:
            raise RuntimeError("submit() needs an idle worker")
        try:
            self._conn.send((target, tuple(args)))
        except (BrokenPipeError, OSError):
            pass  # the child is gone: poll() reports the job as died
        self._begin(limit)

    def _begin(self, limit: Optional[float]) -> None:
        self._busy = True
        self.started = time.monotonic()
        self._kill_at = Deadline.after(
            None if limit is None else limit + max(1.0, 0.5 * limit))

    def poll(self) -> Optional[Outcome]:
        """The current job's outcome once it has one; ``None`` while it runs.

        Each job is reported exactly once (``None`` ever after, until
        the next :meth:`submit`).  A ``died`` or ``killed`` worker's
        process is reaped before the outcome is returned.
        """
        process = self._process
        if process is None or not self._busy:
            return None
        if self._conn.poll() or not process.is_alive():
            # A dead child's message may still sit in the pipe: read it
            # before concluding the child died without reporting.
            outcome = self._receive()
            if outcome is None:
                outcome = ("died", self._reap(process))
            elif not process.is_alive():
                self._reap(process)  # it reported, then exited
        elif self._kill_at.expired():
            self._terminate(process)
            self._reap(process)
            outcome = ("killed", None)
        else:
            return None
        self._busy = False
        return outcome

    def close(self) -> None:
        """End the worker: an idle child exits and is joined; a busy one
        is stopped."""
        process = self._process
        if process is None:
            return
        if self._busy:
            self.stop()
            return
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass  # already gone; the join below reaps it
        self._reap(process)

    def stop(self) -> None:
        """Kill the worker now; a job still running is never reported."""
        process = self._process
        if process is not None:
            self._terminate(process)
            self._reap(process)

    def _receive(self) -> Optional[Outcome]:
        """The child's message, or ``None`` when its pipe closed empty."""
        try:
            if self._conn.poll():
                message: Outcome = self._conn.recv()
                return message
        except (EOFError, OSError):
            pass
        return None

    @staticmethod
    def _terminate(process: BaseProcess) -> None:
        process.terminate()
        process.join(1.0)
        if process.is_alive():
            process.kill()
            process.join(1.0)

    def _reap(self, process: BaseProcess) -> Optional[int]:
        """Close the pipe and join the process; returns its exit code."""
        self._process = None
        self._conn.close()
        process.join(10.0)
        if process.is_alive():
            process.kill()
            process.join(1.0)
        exitcode = process.exitcode
        process.close()
        return exitcode


def wait_any(workers: Iterable[Worker], timeout: Optional[float] = None) -> None:
    """Block until one of ``workers`` may have an outcome to poll.

    Wakes on a message, a child's exit or the nearest kill deadline of
    a running job, and after ``timeout`` seconds at the latest
    (``None``: no extra cap).  With no job running it sleeps
    ``timeout`` seconds, or returns at once when that is ``None``.
    """
    handles: List[Any] = []
    for worker in workers:
        if worker._process is None or not worker._busy:
            continue
        handles += [worker._conn, worker._process.sentinel]
        remaining = worker._kill_at.remaining()
        if remaining is not None and (timeout is None or remaining < timeout):
            timeout = remaining
    if handles:
        multiprocessing.connection.wait(handles, timeout)
    elif timeout is not None:
        time.sleep(timeout)
