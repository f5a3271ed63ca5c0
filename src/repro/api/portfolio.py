"""Portfolio racing: several engines, one problem, first answer wins.

The paper's experiments repeatedly show that no single engine
dominates — the PB profiles win on some instance families, the
persistent CDCL descent on others, and the problem-specific DSATUR
branch and bound embarrasses both on sparse kernels.  The ``portfolio``
backend turns that observation into a solving strategy: every racer
named in ``SolveConfig.racers`` (``"backend"`` or
``"backend:strategy"`` specs) attacks the *same* problem in its own
worker process, and the first conclusive answer (optimum proved, or
infeasibility proved) cancels the rest through the shared stop event.

Racers cooperate while they compete:

* **bound exchange** — every racer publishes the bounds it proves to a
  queue (a SAT coloring at K is ``ub = K`` for everyone, a refuted K is
  ``lb = K + 1``); the parent folds them into shared ``ub``/``lb``
  values that racers poll in their cancel predicates, so the race also
  ends when the *combined* bounds meet — even if no single racer
  proved both sides.  ``cdcl-incremental`` racers publish per-K-query
  (they ride a :class:`~repro.api.Session`, whose progress events
  carry each query's outcome); the one-shot engines publish their
  final bounds.
* **clause sharing** (``SolveConfig.share_clauses``) — short learned
  clauses flow between the ``cdcl-incremental`` racers through the
  parent.  This is sound *only* because Session descents are
  assumption-based: nothing is ever disabled at level 0, so every
  learnt clause is implied by the (deterministically identical)
  encoding alone; receivers additionally drop clauses mentioning
  variables beyond their current horizon.

Failure handling mirrors the component pool: a dying racer is retried
once (:class:`~repro.resilience.RetryPolicy` classifies a death as
transient), then dropped — the race continues with the survivors, and
only a fully dead field yields UNKNOWN.  The ``racer`` fault-injection
point fires at the top of every racer process, which is how the chaos
suite kills a racer mid-race and watches the field recover.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import queue as queue_mod
import time
from typing import Dict, List, Optional, Tuple

from ..coloring.verify import check_proper
from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from ..resilience import Deadline, RetryPolicy
from ..resilience.faults import fire as _fire_fault
from ..resilience.faults import install_env_faults
from ..sat.result import FEASIBLE, OPTIMAL, SAT, UNKNOWN, UNSAT
from .backends import Backend, get_backend, resolve_backend_name
from .config import PipelineConfig
from .problems import CHROMATIC, DECISION, ChromaticProblem, DecisionProblem, Problem
from .results import Result, RunContext, StageStat

#: Racer deaths are transient: retried this many times before the
#: racer is dropped and the race continues with the survivors.
_RACER_RETRIES = 1

#: Clause sharing exports learnt clauses of at most this many literals
#: (short clauses prune the most per byte), at most this many per
#: ``solve()`` call.
_SHARE_MAX_LEN = 4
_SHARE_BATCH = 64

#: The Session-routed racer (per-query bound publication + clause
#: sharing); every other engine races through its backend's run().
_SESSION_RACER = "cdcl-incremental"


def parse_racer(spec: str) -> Tuple[str, Optional[str]]:
    """Split a ``"backend"`` / ``"backend:strategy"`` spec (canonical name)."""
    name, _, strategy = spec.partition(":")
    return resolve_backend_name(name), (strategy or None)


def _race_decided(ub_val, lb_val) -> bool:
    """Have the published bounds met?  (``ub`` of 0 means "none yet".)"""
    ub = ub_val.value
    return ub > 0 and lb_val.value >= ub


def _install_clause_sharing(index: int, inbox, outbox) -> None:
    """Wrap the racer's solver factory seam for clause exchange.

    Every ``solve()`` call first drains the inbox (clauses from sibling
    racers, dropped unless every variable is within this solver's
    current horizon — see the module docstring for why that makes the
    exchange sound), then exports its own fresh short learnt clauses.
    """
    from ..sat import factory

    seen: set = set()
    previous = None

    def sharing_factory(*args, **kwargs):
        solver = previous(*args, **kwargs)
        inner_solve = solver.solve

        def solve(*sargs, **skwargs):
            while True:
                try:
                    clause = inbox.get_nowait()
                except queue_mod.Empty:
                    break
                if clause and max(abs(lit) for lit in clause) <= solver.num_vars:
                    seen.add(tuple(sorted(clause)))
                    solver.add_clause(list(clause))
            result = inner_solve(*sargs, **skwargs)
            exported: List[Tuple[int, ...]] = []
            for learnt in solver.learned:
                if len(learnt) > _SHARE_MAX_LEN:
                    continue
                key = tuple(sorted(learnt))
                if key in seen:
                    continue
                seen.add(key)
                exported.append(tuple(learnt))
                if len(exported) >= _SHARE_BATCH:
                    break
            if exported:
                try:
                    outbox.put((index, exported))
                except (BrokenPipeError, OSError):
                    pass
            return result

        solver.solve = solve
        return solver

    previous = factory.set_solver_factory(sharing_factory)


def _run_session_racer(payload, cancelled, publish):
    """A ``cdcl-incremental`` chromatic racer on a whole-graph Session.

    The Session's assumption-based descent emits one progress event per
    K query; SAT at K publishes ``ub = K``, UNSAT publishes
    ``lb = K + 1`` — both globally valid for the whole graph, which is
    exactly what the sibling racers are coloring too.
    """
    from .session import Session

    index = payload["index"]
    config: PipelineConfig = payload["config"]
    if payload["share"]:
        _install_clause_sharing(
            index, payload["clause_in"], payload["clause_out"])

    def on_progress(event) -> None:
        if event.stage != "query" or event.k is None or event.status is None:
            return
        try:
            if event.status == SAT:
                publish.put((index, "ub", event.k))
            elif event.status == UNSAT:
                publish.put((index, "lb", event.k + 1))
        except (BrokenPipeError, OSError):
            pass

    session = Session(
        payload["graph"], config=config,
        on_progress=on_progress, cancel=cancelled,
    )
    return session.chromatic(
        strategy=config.solve.strategy or "linear",
        time_limit=config.solve.time_limit,
        max_colors=payload["max_colors"],
    )


def _run_racer(payload, stop_event, ub_val, lb_val, publish) -> Result:
    """Solve the race's problem with this racer's engine."""
    kind = payload["kind"]

    def cancelled() -> bool:
        if stop_event.is_set():
            return True
        return kind == CHROMATIC and _race_decided(ub_val, lb_val)

    if kind == CHROMATIC and payload["backend"] == _SESSION_RACER:
        return _run_session_racer(payload, cancelled, publish)
    backend = get_backend(payload["backend"])
    config: PipelineConfig = payload["config"]
    if kind == DECISION:
        problem: Problem = DecisionProblem(payload["graph"], payload["k"])
    else:
        problem = ChromaticProblem(payload["graph"], payload["max_colors"])
    result = backend.run(problem, config, RunContext(cancel=cancelled))
    if kind == CHROMATIC:
        index = payload["index"]
        try:
            if result.feasible and result.num_colors is not None:
                publish.put((index, "ub", result.num_colors))
            if result.status == OPTIMAL and result.num_colors is not None:
                publish.put((index, "lb", result.num_colors))
            elif result.lower_bound is not None:
                publish.put((index, "lb", result.lower_bound))
        except (BrokenPipeError, OSError):
            pass
    return result


def _racer_entry(payload, conn, stop_event, ub_val, lb_val, publish) -> None:
    """Racer process entry point (top-level and picklable, per RPR006)."""
    try:
        install_env_faults()
        _fire_fault("racer", payload["spec"])
        message: Tuple[str, object] = (
            "ok", _run_racer(payload, stop_event, ub_val, lb_val, publish))
    except BaseException as exc:  # noqa: BLE001 - must report, not vanish
        message = ("error", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass
    finally:
        conn.close()


class _RaceFlight:
    """One in-flight racer process."""

    __slots__ = ("index", "process", "conn", "kill_at", "retries")

    def __init__(self, index, process, conn, kill_at, retries):
        self.index = index
        self.process = process
        self.conn = conn
        self.kill_at = kill_at
        self.retries = retries


class PortfolioBackend(Backend):
    """Race the configured engines; first conclusive answer wins.

    See the module docstring for the cooperation protocol (bound
    exchange, optional clause sharing) and the failure model (retry
    once, then drop the racer).  The merged Result is the winner's,
    with a ``race`` stage recording the field, the winner, how many
    racers were cancelled, and the final shared bounds; when no racer
    is individually conclusive the best verified coloring is returned,
    upgraded to OPTIMAL if the *combined* published bounds met it.
    """

    name = "portfolio"
    description = "races the configured engines; first conclusive answer wins"
    supports = (DECISION, CHROMATIC)
    sbp_kinds = ("none",)
    persistent = False

    def validate(self, problem: Problem, config: PipelineConfig) -> None:
        super().validate(problem, config)
        specs = config.solve.racers
        if len(specs) < 2:
            raise ValueError(
                f"portfolio needs at least 2 racers, got {specs!r}"
            )
        for spec in specs:
            name, _ = parse_racer(spec)
            if name == self.name:
                raise ValueError("portfolio cannot race itself")
            racer = get_backend(name)
            if problem.kind not in racer.supports:
                raise ValueError(
                    f"racer {spec!r} does not answer {problem.kind!r} "
                    f"problems; it supports {racer.supports}"
                )

    def run(self, problem: Problem, config: PipelineConfig,
            ctx: RunContext) -> Result:
        from .pipeline import _trivial_result

        trivial = _trivial_result(problem.kind, problem.graph)
        if trivial is not None:
            return trivial
        return _race(problem, config, ctx)


def _racer_config(config: PipelineConfig, name: str,
                  strategy: Optional[str]) -> PipelineConfig:
    """The racer's own config: its backend, no nested fan-out."""
    from dataclasses import replace

    return config.with_stage(solve=replace(
        config.solve,
        backend=name,
        strategy=strategy if strategy is not None else config.solve.strategy,
        pool_jobs=0,
        share_clauses=False,
    ))


def _race(problem: Problem, config: PipelineConfig, ctx: RunContext) -> Result:
    t0 = time.monotonic()
    specs = tuple(config.solve.racers)
    parsed = [parse_racer(spec) for spec in specs]
    time_limit = config.solve.time_limit
    deadline = Deadline.after(time_limit)
    mp_ctx = multiprocessing.get_context()
    stop_event = mp_ctx.Event()
    ub_val = mp_ctx.Value("i", 0)
    lb_val = mp_ctx.Value("i", 0)
    publish = mp_ctx.Queue()
    session_racers = [
        i for i, (name, _) in enumerate(parsed) if name == _SESSION_RACER
    ]
    share = (
        config.solve.share_clauses
        and problem.kind == CHROMATIC
        and len(session_racers) >= 2
    )
    clause_bus = mp_ctx.Queue() if share else None
    inboxes: Dict[int, object] = (
        {i: mp_ctx.Queue() for i in session_racers} if share else {}
    )
    registry = get_registry()
    tracer = active_tracer()
    registry.inc("race_runs_total")
    if tracer is not None:
        tracer.race_begin(len(specs))
    ctx.emit("race", f"racing {len(specs)} engines: {', '.join(specs)}")
    retry_policy = RetryPolicy(max_retries=_RACER_RETRIES)
    flights: Dict[int, _RaceFlight] = {}
    results: Dict[int, Result] = {}
    ub: Optional[int] = None
    lb: Optional[int] = None

    def launch(index: int, retries: int) -> None:
        name, strategy = parsed[index]
        payload = {
            "index": index,
            "spec": specs[index],
            "backend": name,
            "kind": problem.kind,
            "graph": problem.graph,
            "config": _racer_config(config, name, strategy),
            "k": getattr(problem, "k", None),
            "max_colors": getattr(problem, "max_colors", None),
            "share": share and index in inboxes,
            "clause_in": inboxes.get(index),
            "clause_out": clause_bus,
        }
        recv, send = mp_ctx.Pipe(duplex=False)
        process = mp_ctx.Process(
            target=_racer_entry,
            args=(payload, send, stop_event, ub_val, lb_val, publish),
            daemon=True,
        )
        process.start()
        send.close()
        kill_at = Deadline.after(
            time_limit + max(2.0, 0.5 * time_limit)
            if time_limit is not None else None
        )
        flights[index] = _RaceFlight(index, process, recv, kill_at, retries)

    def drain_bounds() -> None:
        nonlocal ub, lb
        while True:
            try:
                racer, kind, value = publish.get_nowait()
            except queue_mod.Empty:
                break
            except (EOFError, OSError):
                break
            if kind == "ub" and (ub is None or value < ub):
                ub = value
                with ub_val.get_lock():
                    ub_val.value = value
            elif kind == "lb" and (lb is None or value > lb):
                lb = value
                with lb_val.get_lock():
                    lb_val.value = value
            else:
                continue
            registry.inc("race_bounds_total", kind=kind)
            if tracer is not None:
                tracer.race_bound(racer, kind, value)

    def relay_clauses() -> None:
        if clause_bus is None:
            return
        while True:
            try:
                source, clauses = clause_bus.get_nowait()
            except queue_mod.Empty:
                break
            except (EOFError, OSError):
                break
            registry.inc("race_clauses_shared_total", amount=len(clauses))
            for index, inbox in inboxes.items():
                if index == source:
                    continue
                for clause in clauses:
                    try:
                        inbox.put(clause)
                    except (BrokenPipeError, OSError):
                        pass

    def conclusive(result: Result) -> bool:
        if problem.kind == DECISION:
            return result.status in (SAT, UNSAT)
        return result.solved

    if not ctx.cancelled():  # a pre-cancelled run launches nothing
        for index in range(len(specs)):
            launch(index, 0)
    winner_index: Optional[int] = None
    cancelled_count = 0
    while flights:
        if ctx.cancelled():
            stop_event.set()
        drain_bounds()
        relay_clauses()
        _wait_flights(flights)
        for index in list(flights):
            flight = flights[index]
            if flight.conn.poll():
                try:
                    outcome, value = flight.conn.recv()
                except (EOFError, OSError):
                    outcome, value = "died", "racer pipe closed"
                _reap_flight(flight)
                del flights[index]
                if outcome == "ok":
                    results[index] = value
                    if winner_index is None and conclusive(value):
                        winner_index = index
                        stop_event.set()
                else:
                    registry.inc("race_racer_errors_total")
                    ctx.emit("race", f"racer {specs[index]} failed ({value})")
            elif not flight.process.is_alive():
                if flight.conn.poll():
                    continue  # a message raced in; handled next pass
                _reap_flight(flight)
                del flights[index]
                registry.inc("race_racer_deaths_total")
                if retry_policy.should_retry("died", flight.retries) \
                        and winner_index is None:
                    ctx.emit("race",
                             f"racer {specs[index]} died; relaunching")
                    launch(index, flight.retries + 1)
                else:
                    ctx.emit("race", f"racer {specs[index]} dropped")
            elif flight.kill_at.expired():
                _kill_flight(flight)
                _reap_flight(flight)
                del flights[index]
                registry.inc("race_racer_kills_total")
                ctx.emit("race",
                         f"racer {specs[index]} overran its deadline; killed")
        if winner_index is not None and flights:
            # The race is decided; the survivors were told to stop and
            # anything still running now is cancelled outright.
            grace = Deadline.after(1.0)
            while flights and not grace.expired():
                drain_bounds()
                _wait_flights(flights)
                for index in list(flights):
                    flight = flights[index]
                    if flight.conn.poll():
                        try:
                            outcome, value = flight.conn.recv()
                        except (EOFError, OSError):
                            outcome = "died"
                        if outcome == "ok":
                            results[index] = value
                        _reap_flight(flight)
                        del flights[index]
                        cancelled_count += 1
                    elif not flight.process.is_alive():
                        _reap_flight(flight)
                        del flights[index]
                        cancelled_count += 1
            for flight in flights.values():
                _kill_flight(flight)
                _reap_flight(flight)
                cancelled_count += 1
            flights.clear()
    drain_bounds()
    final = _settle_race(problem, results, winner_index, ub, lb, deadline, ctx)
    # The exchanged bounds are race-level knowledge: a loser's refutation
    # tightens the winner's result even when the winner never saw it.
    if problem.kind == CHROMATIC:
        if ub is not None and (final.upper_bound is None or ub < final.upper_bound):
            final.upper_bound = ub
        if lb is not None and (final.lower_bound is None or lb > final.lower_bound):
            final.lower_bound = lb
    registry.inc("race_cancelled_total", amount=cancelled_count)
    if winner_index is not None:
        registry.inc("race_winner_total", backend=specs[winner_index])
    if tracer is not None:
        tracer.race_end(winner_index, final.status, cancelled_count)
    final.stages.append(StageStat(
        "race", time.monotonic() - t0,
        {
            "racers": list(specs),
            "winner": specs[winner_index] if winner_index is not None else None,
            "cancelled": cancelled_count,
            "ub": ub,
            "lb": lb,
        },
    ))
    return final


def _settle_race(problem, results: Dict[int, Result],
                 winner_index: Optional[int], ub: Optional[int],
                 lb: Optional[int], deadline: Deadline,
                 ctx: RunContext) -> Result:
    """The race's merged answer: the winner's, or the best of the field.

    Without an individually conclusive winner, the best *verified*
    coloring across the field wins — upgraded to OPTIMAL when the
    combined published bounds met at its color count (one racer proved
    the coloring, another refuted the color count below it: together
    they are a proof neither had alone).
    """
    if winner_index is not None:
        return results[winner_index]
    best: Optional[Result] = None
    for result in results.values():
        if not result.feasible or result.num_colors is None:
            continue
        if best is None or result.num_colors < best.num_colors:
            best = result
    if best is None:
        for result in results.values():
            if result.status == UNKNOWN:
                return result
        return Result(
            status=UNKNOWN,
            cancelled=ctx.cancelled(),
            degraded=deadline.expired(),
            lower_bound=lb,
            upper_bound=ub,
        )
    if problem.kind == CHROMATIC and lb is not None \
            and best.num_colors is not None and lb >= best.num_colors:
        check_proper(problem.graph, best.coloring)
        best.status = OPTIMAL
        best.lower_bound = best.num_colors
        best.upper_bound = best.num_colors
        best.degraded = False
        best.cancelled = False
    return best


def _wait_flights(flights: Dict[int, _RaceFlight]) -> None:
    """Block until a racer reports, dies, or a kill deadline nears."""
    timeout = 0.1
    for flight in flights.values():
        remaining = flight.kill_at.remaining()
        if remaining is not None:
            timeout = min(timeout, remaining)
    handles = [f.conn for f in flights.values()]
    handles += [f.process.sentinel for f in flights.values()]
    multiprocessing.connection.wait(handles, timeout=max(timeout, 0.01))


def _kill_flight(flight: _RaceFlight) -> None:
    flight.process.terminate()
    flight.process.join(1.0)
    if flight.process.is_alive():
        flight.process.kill()
        flight.process.join(1.0)


def _reap_flight(flight: _RaceFlight) -> None:
    flight.conn.close()
    flight.process.join(10.0)
    if flight.process.is_alive():
        flight.process.kill()
        flight.process.join(1.0)
    flight.process.close()
