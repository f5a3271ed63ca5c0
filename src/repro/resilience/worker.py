"""One way to run work in a child process.

:class:`Worker` is the process primitive behind every tier that runs
work out of process: the batch fleet (one worker per attempt) and the
``portfolio`` race (one per racer).  It owns what those tiers share:

* **the child side** — arm the ``REPRO_FAULTS`` plan
  (:func:`~repro.resilience.faults.install_env_faults`), drop the
  tracer inherited from the parent, run ``target(*args)`` and send one
  message over a one-way pipe.  A forked child's copy of the parent's
  buffered trace writer still holds the parent's unflushed bytes;
  dropping it unflushed keeps the parent's trace file intact;
* **the kill rule** — a worker given ``limit`` seconds is killed at
  ``limit + max(1.0, 0.5 * limit)`` on the parent's clock, which a
  fault skewing the child's clock cannot stretch (``limit=None``: never
  killed);
* **the outcome protocol** — :meth:`Worker.poll` reports each worker
  exactly once, as one of

  ========================  =============================================
  ``("ok", value)``         ``target`` returned ``value``
  ``("error", "Type: m")``  ``target`` raised (``type(exc).__name__: m``)
  ``("died", exitcode)``    the child exited without a message
  ``("killed", None)``      the parent killed it at its kill deadline
  ========================  =============================================

  and reaps the process before returning.

Callers keep only their own policy — what to retry, what to fall back
to, when to :meth:`~Worker.stop` the rest — and block on
:func:`wait_any`.  Targets are module-level callables with picklable
arguments (rule RPR006), so the platform's default start method works:
fork on Linux, spawn on macOS and Windows, where forcing fork hits the
objc fork-safety abort.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..obs.hooks import uninstall_tracer
from .budget import Deadline
from .faults import install_env_faults

#: What :meth:`Worker.poll` reports: ``(kind, value)``.
Outcome = Tuple[str, Any]


def _child(target: Callable[..., Any], args: Sequence[Any], conn: Any) -> None:
    """Child side: drop the inherited tracer, arm faults, run, report."""
    uninstall_tracer()
    try:
        install_env_faults()
        message: Outcome = ("ok", target(*args))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        message = ("error", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass  # the parent stopped listening
    finally:
        conn.close()


class Worker:
    """``target(*args)`` running in a child process, reported once.

    ``limit`` is the work's own budget in seconds; the parent kills the
    child at ``limit + max(1.0, 0.5 * limit)``.  ``started`` is the
    launch instant on the monotonic clock.
    """

    def __init__(self, target: Callable[..., Any], args: Sequence[Any] = (),
                 limit: Optional[float] = None) -> None:
        ctx = multiprocessing.get_context()
        self._conn, send = ctx.Pipe(duplex=False)
        self._process: Optional[BaseProcess] = ctx.Process(
            target=_child, args=(target, tuple(args), send), daemon=True)
        self._process.start()
        send.close()  # the parent only reads
        self.started = time.monotonic()
        self._kill_at = Deadline.after(
            None if limit is None else limit + max(1.0, 0.5 * limit))

    def poll(self) -> Optional[Outcome]:
        """The worker's outcome once it has one; ``None`` while it runs.

        Each worker is reported exactly once (``None`` ever after), and
        its process is reaped before the outcome is returned.
        """
        process = self._process
        if process is None:
            return None
        if self._conn.poll() or not process.is_alive():
            # A dead child's message may still sit in the pipe: read it
            # before concluding the child died without reporting.
            outcome = self._receive()
        elif self._kill_at.expired():
            self._terminate(process)
            outcome = ("killed", None)
        else:
            return None
        exitcode = self._reap(process)
        return outcome if outcome is not None else ("died", exitcode)

    def stop(self) -> None:
        """Kill the worker now if it still runs; it is never reported."""
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

    Wakes on a message, a child's exit or the nearest kill deadline, and
    after ``timeout`` seconds at the latest (``None``: no extra cap).
    """
    handles: List[Any] = []
    for worker in workers:
        if worker._process is None:
            continue
        handles += [worker._conn, worker._process.sentinel]
        remaining = worker._kill_at.remaining()
        if remaining is not None and (timeout is None or remaining < timeout):
            timeout = remaining
    if handles:
        multiprocessing.connection.wait(handles, timeout)
