"""The parallel fleet runner: many problems, a pool of worker processes.

:class:`BatchRunner` fans a list of :class:`~repro.batch.manifest.TaskSpec`
across at most ``jobs`` worker processes kept for the whole run.  Each
:class:`~repro.resilience.Worker` runs one attempt after another, and
every attempt starts from the state a fresh fork of the coordinator
would have; a worker that dies or is killed is replaced by a new one,
so a hung or crashed solver never takes the pool down.  The runner
adds:

* **per-task wall-clock timeouts** — each attempt gets ``task_timeout``
  seconds; inside the worker the engine's ``SolveConfig.time_limit`` and
  the ``RunContext`` cancel predicate are both armed with the deadline
  (the cooperative path), and the coordinator hard-kills any worker
  still running at ``task_timeout + max(1.0, 0.5 * task_timeout)`` (the
  :class:`~repro.resilience.Worker` kill rule: the insurance path);
* **backend-fallback chains** — a timed-out or inconclusive attempt is
  re-queued on the next backend of the task's chain (e.g.
  ``cdcl-incremental`` -> ``cplex-bb``), with a fresh timeout budget;
* **retry on worker death** — a worker that dies without reporting (OOM
  kill, solver crash) is a *transient* failure: the attempt is
  re-queued at once on the same backend, up to ``retries`` times,
  before the chain advances;
* **deterministic ordering** — records are emitted in manifest order no
  matter the completion order, so ``--jobs 4`` output is byte-comparable
  with ``--jobs 1``;
* **streaming JSONL** — each finalized record is written (and handed to
  ``on_record``) as soon as every earlier task has finalized, plus one
  aggregate summary at the end (per-backend wins, timeouts, total wall).
  Every line is flushed *and fsynced* (a write-ahead log), so a crashed
  batch loses at most the line that was mid-write — and
  ``resume_records`` (the CLI's ``--resume``) replays a previous run's
  intact records and schedules only the tasks they don't cover,
  reproducing the uninterrupted run's records byte-for-byte.

Symmetry detection is cached per process: inline mode keeps one plain
dict for the batch, and each worker keeps one for its run, so tasks
re-solving an instance in the same process detect once.

``jobs=0`` runs every attempt inline in the calling process — no
subprocesses, cooperative timeouts only — which is the right mode for
debugging and for platforms without ``fork``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple, Union

from ..obs.metrics import get_registry, scoped_registry
from ..resilience import Deadline, Worker, append_record, wait_any
from ..resilience.faults import fire as _fire_fault
from .manifest import TaskSpec, as_task, load_plugins
from .records import conclusive, error_record, result_to_record

# Outcomes an attempt can end with: "ok" finalizes; "died" is transient
# (retried, then the fallback chain advances); "timeout" /
# "inconclusive" / "error" advance the chain at once.


def _execute_attempt(
    task: TaskSpec,
    backend: str,
    task_timeout: Optional[float],
    include_coloring: bool,
    detection_cache=None,
) -> Tuple[str, Dict[str, object]]:
    """Run one (task, backend) attempt to completion in this process.

    ``detection_cache`` is this process's symmetry-detection cache (a
    plain dict), keyed on the graph as labeled — tasks re-solving the
    same instance reuse one detection run instead of re-detecting per
    attempt.
    """
    start = time.monotonic()
    deadline = Deadline.after(task_timeout)
    _fire_fault("attempt", backend)

    # A fresh ambient metrics registry scopes the attempt's counters:
    # the deterministic snapshot lands in the JSONL record, identical
    # for identical work whether the attempt ran inline or in a worker
    # process (the --jobs 1 vs --jobs 4 byte-comparability contract).
    with scoped_registry() as registry:
        try:
            graph = task.graph.build()
            problem = task.problem(graph)
            time_limit = task.time_limit
            if task_timeout is not None:
                time_limit = (
                    task_timeout if time_limit is None
                    else min(time_limit, task_timeout)
                )
            pipeline = task.pipeline(backend=backend, time_limit=time_limit)
            result = pipeline.run(
                problem,
                cancel=deadline.expired if deadline.bounded else None,
                detection_cache=detection_cache,
            )
        except Exception as exc:  # noqa: BLE001 - reported, never fatal to the batch
            return "error", error_record(
                f"{type(exc).__name__}: {exc}", seconds=time.monotonic() - start
            )
    record = result_to_record(result, include_coloring=include_coloring)
    record["metrics"] = registry.snapshot(deterministic_only=True)
    record["seconds"] = round(time.monotonic() - start, 6)
    if conclusive(result, task.kind):
        outcome = "ok"
    elif result.cancelled or deadline.expired():
        outcome = "timeout"
        record["timed_out"] = True
    else:
        # The engine gave up inside its own budget (UNKNOWN / SAT bound
        # not proved) — let the fallback chain have a go.
        outcome = "inconclusive"
    return outcome, record


#: A worker process's symmetry-detection cache, kept across the
#: attempts it runs.  Only worker jobs fill it, so every worker forks
#: it empty and it lives as long as the worker: one ``run()``.
_worker_detection_cache: Dict[Any, Any] = {}


def _worker_entry(payload: Dict[str, object]) -> Tuple[str, Dict[str, object]]:
    """Worker target: run one attempt in the child, return (outcome, record).

    ``_execute_attempt`` is looked up as a module global at call time,
    so a wrapper set on this module before the batch starts runs in
    every worker the batch forks.
    """
    load_plugins(payload["plugins"])
    return _execute_attempt(
        TaskSpec.from_dict(payload["task"]),
        payload["backend"],
        payload["task_timeout"],
        payload["include_coloring"],
        detection_cache=_worker_detection_cache,
    )


@dataclass
class BatchReport:
    """What a batch run produced: ordered records + the aggregate summary."""

    records: List[Dict[str, object]] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def record(self, task_name: str) -> Dict[str, object]:
        """The record of the named task (``KeyError`` if absent)."""
        for record in self.records:
            if record.get("task") == task_name:
                return record
        raise KeyError(f"no record for task {task_name!r}")


class _TaskState:
    """Coordinator-side progress of one task through its backend chain."""

    __slots__ = ("chain", "backend_idx", "retry", "attempts", "best_partial")

    def __init__(self, chain: Tuple[str, ...]):
        self.chain = chain
        self.backend_idx = 0
        self.retry = 0
        self.attempts: List[Dict[str, object]] = []
        # The most informative inconclusive record seen so far (e.g. a
        # SAT bound from a timed-out chromatic descent) with the backend
        # that produced it — kept so a later attempt ending worse
        # (crash, error) cannot discard an answer already in hand.
        self.best_partial: Optional[Tuple[str, Dict[str, object]]] = None

    @property
    def backend(self) -> str:
        return self.chain[self.backend_idx]

    def has_fallback(self) -> bool:
        return self.backend_idx + 1 < len(self.chain)


class _OrderedEmitter:
    """Buffers finalized records and releases the contiguous prefix."""

    def __init__(self, total: int, on_record, jsonl: Optional[IO[str]]):
        self._records: List[Optional[Dict[str, object]]] = [None] * total
        self._cursor = 0
        self._on_record = on_record
        self._jsonl = jsonl

    def add(self, index: int, record: Dict[str, object]) -> None:
        self._records[index] = record
        while (
            self._cursor < len(self._records)
            and self._records[self._cursor] is not None
        ):
            ready = self._records[self._cursor]
            if self._jsonl is not None:
                # Write-ahead-log discipline: the record is on disk
                # before the runner schedules anything that depends on
                # it, so --resume can trust every intact line.
                append_record(self._jsonl, ready)
            if self._on_record is not None:
                self._on_record(ready)
            self._cursor += 1

    def records(self) -> List[Dict[str, object]]:
        return [r for r in self._records if r is not None]


class BatchRunner:
    """Run a list of batch tasks across a worker pool; collect records.

    ``tasks`` items may be :class:`TaskSpec`, manifest-style dicts, api
    ``Problem`` objects, or ``(name, Problem)`` pairs.  ``fallback``
    appends a runner-level backend chain to every task.  ``retries`` is
    how many times a died attempt re-runs on the same backend before the
    chain advances.  ``jsonl`` is an optional open text file receiving
    one record per line (in manifest order, streamed) plus a final
    ``{"summary": ...}`` line.
    """

    def __init__(
        self,
        tasks: Sequence[Union[TaskSpec, Dict, object]],
        jobs: int = 1,
        task_timeout: Optional[float] = None,
        fallback: Sequence[str] = (),
        retries: int = 1,
        include_colorings: bool = False,
        plugins: Sequence[str] = (),
        on_record=None,
        jsonl: Optional[IO[str]] = None,
        resume_records: Sequence[Dict[str, object]] = (),
    ):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        load_plugins(plugins)
        self.plugins = tuple(plugins)
        self.tasks = [
            as_task(item, i).with_global_fallback(fallback)
            for i, item in enumerate(tasks)
        ]
        from ..api.backends import resolve_backend_name

        for task in self.tasks:
            for name in task.backends:
                resolve_backend_name(name)  # fail fast, names the choices
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.retries = retries
        self.resume_records = list(resume_records)
        self.include_colorings = include_colorings
        self._on_record = on_record
        self._jsonl = jsonl

    # ------------------------------------------------------------------ run
    def run(self) -> BatchReport:
        start = time.monotonic()
        states = [_TaskState(task.backends) for task in self.tasks]
        emitter = _OrderedEmitter(len(self.tasks), self._on_record, self._jsonl)
        done = self._replay_resumed(emitter)
        if self.jobs == 0:
            self._run_inline(states, emitter, skip=done)
        else:
            self._run_pool(states, emitter, skip=done)
        report = BatchReport(records=emitter.records())
        report.summary = self._summarize(report.records, time.monotonic() - start)
        if self._jsonl is not None:
            append_record(self._jsonl, {"summary": report.summary})
        return report

    def _replay_resumed(self, emitter: "_OrderedEmitter") -> frozenset:
        """Re-emit a previous run's intact records; return their indices.

        A resumed record must still name the task it claims to answer
        (same manifest index, same task description) — a record from a
        different or reordered manifest is silently ignored and its
        task re-runs, which is always safe.
        """
        done = set()
        for record in self.resume_records:
            index = record.get("index")
            if not isinstance(index, int) or not 0 <= index < len(self.tasks):
                continue
            if record.get("task") != self.tasks[index].describe():
                continue
            if index in done:
                continue
            done.add(index)
            emitter.add(index, dict(record))
        return frozenset(done)

    # ----------------------------------------------------------- inline mode
    def _run_inline(self, states, emitter, skip=frozenset()) -> None:
        # One plain dict shared across the whole batch: repeated
        # instances re-detect once, not once per task.
        detection_cache: Dict[Any, Any] = {}
        for index, task in enumerate(self.tasks):
            if index in skip:
                continue
            state = states[index]
            while True:
                outcome, record = _execute_attempt(
                    task, state.backend, self.task_timeout,
                    self.include_colorings,
                    detection_cache=detection_cache,
                )
                if not self._settle(index, state, outcome, record, emitter):
                    break

    # ------------------------------------------------------------- pool mode
    def _run_pool(self, states, emitter, skip=frozenset()) -> None:
        """Run every attempt on at most ``jobs`` workers kept for the run.

        An idle worker takes the next queued attempt; a worker that died
        or was killed is gone, and a fresh one takes its slot.  Every
        worker is closed and joined before this returns, so
        ``RUSAGE_CHILDREN`` counts all of their CPU.
        """
        # Task indices whose next attempt waits for a worker, in
        # launch order.
        pending = deque(i for i in range(len(self.tasks)) if i not in skip)
        flights: Dict[int, Worker] = {}
        idle: List[Worker] = []
        try:
            while pending or flights:
                get_registry().gauge(
                    "batch_queue_depth", len(pending) + len(flights))
                while pending and len(flights) < self.jobs:
                    index = pending.popleft()
                    flights[index] = self._launch(
                        index, states[index], idle.pop() if idle else None)
                wait_any(flights.values())
                for index, worker in list(flights.items()):
                    reported = worker.poll()
                    if reported is None:
                        continue
                    del flights[index]
                    if worker.idle:
                        idle.append(worker)
                    outcome, record = self._attempt_outcome(worker, reported)
                    if self._settle(
                            index, states[index], outcome, record, emitter):
                        pending.append(index)
        finally:
            for worker in idle + list(flights.values()):
                worker.close()  # stops one still running a job

    def _launch(self, index: int, state: _TaskState,
                worker: Optional[Worker]) -> Worker:
        """Start the task's next attempt on ``worker``, or on a new one."""
        payload = {
            "task": self.tasks[index].to_dict(),
            "backend": state.backend,
            "task_timeout": self.task_timeout,
            "include_coloring": self.include_colorings,
            # A worker loads the plugins with its first job only:
            # load_plugins re-executes a .py plugin on every call.
            "plugins": self.plugins if worker is None else (),
        }
        if worker is None:
            return Worker(_worker_entry, (payload,), self.task_timeout)
        worker.submit(_worker_entry, (payload,), self.task_timeout)
        return worker

    def _attempt_outcome(
        self, worker: Worker, reported: Tuple[str, Any],
    ) -> Tuple[str, Dict[str, object]]:
        """One worker's report as an attempt ``(outcome, record)``."""
        kind, value = reported
        if kind == "ok":
            return value
        if kind == "error":
            return "error", error_record(value)
        seconds = time.monotonic() - worker.started
        if kind == "died":
            # Crash, OOM or external kill: transient, so retried.
            return "died", error_record(
                f"worker died (exit code {value})", seconds=seconds)
        # Killed at its kill deadline: the cooperative timeout failed.
        record = error_record(
            f"killed after exceeding the {self.task_timeout}s task timeout",
            seconds=seconds,
        )
        record["status"] = "UNKNOWN"
        record["timed_out"] = True
        return "timeout", record

    # ------------------------------------------------------------ settlement
    def _settle(
        self, index: int, state: _TaskState, outcome: str,
        record: Dict[str, object], emitter: _OrderedEmitter,
    ) -> bool:
        """Fold one attempt outcome into the task state.

        Returns whether the task was re-queued: a died attempt is
        retried on the same backend while ``retries`` allows, any other
        failure (or a death past them) advances the fallback chain, and
        a task with no backend left is finalized.
        """
        state.attempts.append({
            "backend": state.backend,
            "outcome": outcome,
            "seconds": record.get("seconds"),
        })
        get_registry().inc("batch_attempts_total",
                           outcome=outcome, backend=state.backend)
        if outcome == "ok":
            self._finalize(index, state, outcome, record, emitter)
            return False
        colors = record.get("num_colors")
        if colors is not None:
            best = state.best_partial
            if best is None or best[1].get("num_colors") > colors:
                state.best_partial = (state.backend, record)
        if outcome == "died" and state.retry < self.retries:
            state.retry += 1
            return True
        if state.has_fallback():
            state.backend_idx += 1
            state.retry = 0
            return True
        self._finalize(index, state, outcome, record, emitter)
        return False

    def _finalize(
        self, index: int, state: _TaskState, outcome: str,
        record: Dict[str, object], emitter: _OrderedEmitter,
    ) -> None:
        backend = state.backend
        if (
            outcome != "ok"
            and record.get("num_colors") is None
            and state.best_partial is not None
        ):
            # The chain ended on a worse outcome than an earlier
            # attempt: report the best answer in hand, keep the
            # chain-ending outcome in the envelope.
            backend, record = state.best_partial
        final = dict(record)
        final["task"] = self.tasks[index].describe()
        final["index"] = index
        final["backend"] = backend
        final["outcome"] = outcome
        final["attempts"] = state.attempts
        registry = get_registry()
        registry.inc("batch_tasks_total", outcome=outcome)
        seconds = record.get("seconds")
        if isinstance(seconds, (int, float)):
            registry.observe_seconds("batch_task_seconds", float(seconds))
        emitter.add(index, final)

    # --------------------------------------------------------------- summary
    def _summarize(
        self, records: List[Dict[str, object]], wall: float
    ) -> Dict[str, object]:
        wins: Dict[str, int] = {}
        outcomes: Dict[str, int] = {}
        fallbacks = retries = 0
        for record in records:
            outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
            if record["outcome"] == "ok":
                wins[record["backend"]] = wins.get(record["backend"], 0) + 1
            attempts = record.get("attempts", ())
            backends_tried = {a["backend"] for a in attempts}
            fallbacks += len(backends_tried) - 1
            retries += len(attempts) - len(backends_tried)
        return {
            "tasks": len(records),
            "jobs": self.jobs,
            "task_timeout": self.task_timeout,
            "outcomes": dict(sorted(outcomes.items())),
            "backend_wins": dict(sorted(wins.items())),
            "fallback_promotions": fallbacks,
            "retries": retries,
            "wall_seconds": round(wall, 6),
        }


def solve_many(
    tasks: Sequence[Union[TaskSpec, Dict, object]],
    jobs: int = 1,
    task_timeout: Optional[float] = None,
    fallback: Sequence[str] = (),
    retries: int = 1,
    include_colorings: bool = False,
    plugins: Sequence[str] = (),
    on_record=None,
    jsonl_path: Optional[str] = None,
    resume_records: Sequence[Dict[str, object]] = (),
) -> BatchReport:
    """Solve many problems across a worker pool; records in input order.

    The batch facade over :class:`~repro.api.Pipeline`: each item is a
    :class:`TaskSpec`, a manifest-style dict, an api ``Problem``, or a
    ``(name, Problem)`` pair.  See :class:`BatchRunner` for the timeout /
    fallback / retry semantics; ``jsonl_path`` streams records (plus the
    final summary line) to a file as tasks finalize.
    """
    kwargs = dict(
        jobs=jobs, task_timeout=task_timeout, fallback=fallback,
        retries=retries, include_colorings=include_colorings, plugins=plugins,
        on_record=on_record, resume_records=resume_records,
    )
    if jsonl_path is not None:
        with open(jsonl_path, "w") as fh:
            return BatchRunner(tasks, jsonl=fh, **kwargs).run()
    return BatchRunner(tasks, **kwargs).run()
