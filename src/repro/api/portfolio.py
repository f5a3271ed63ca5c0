"""Portfolio racing: several engines, one problem, first answer wins.

The paper's experiments repeatedly show that no single engine
dominates — the PB profiles win on some instance families, the
persistent CDCL descent on others, and the problem-specific DSATUR
branch and bound embarrasses both on sparse kernels.  The ``portfolio``
backend turns that observation into a solving strategy: every racer
named in ``SolveConfig.racers`` (``"backend"`` or
``"backend:strategy"`` specs) attacks the *same* problem in its own
worker process, and the first conclusive answer (optimum proved, or
infeasibility proved) cancels the rest through the shared stop event,
the only state racers share with the parent.  The run's deadline sets
the stop event too.  Either way the survivors get a 1 s grace to report
their best-so-far, which the race still collects; those running after it
are stopped and counted as cancelled, so a race ends by its deadline
plus the grace.  Every racer runs its
backend in the frame a direct run uses
(:func:`~repro.api.pipeline.run_framed`); a racer whose coloring fails
the frame's check ends with an error, and the race goes on without it.

A chromatic race takes its bounds from the answers it collects, once
the racers are done: the fewest colors among the feasible answers is
its upper bound, the largest proved ``lower_bound`` its lower bound.
When no racer proved the optimum alone but one racer's coloring meets
another's lower bound, the two together are the proof.

A dying racer is relaunched at once, one time (a death is transient),
then dropped — the race continues with the survivors, and only a fully
dead field yields UNKNOWN.  Every racer, a relaunched one too, gets
what the run's one deadline has left as its time limit and its kill
limit.  The ``racer`` fault-injection point fires at the top of every
racer process, which is how the chaos suite kills a racer mid-race and
watches the field recover.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, Optional, Tuple

from ..obs.hooks import active_tracer
from ..obs.metrics import get_registry
from ..resilience import Deadline, Worker, wait_any
from ..resilience.faults import fire as _fire_fault
from ..sat.result import OPTIMAL, UNKNOWN
from .backends import Backend, get_backend, resolve_backend_name
from .config import PipelineConfig
from .pipeline import run_framed
from .problems import CHROMATIC, DECISION, ChromaticProblem, DecisionProblem, Problem
from .results import Result, RunContext, StageStat, conclusive

#: Racer deaths are transient: retried this many times before the
#: racer is dropped and the race continues with the survivors.
_RACER_RETRIES = 1


def parse_racer(spec: str) -> Tuple[str, Optional[str]]:
    """Split a ``"backend"`` / ``"backend:strategy"`` spec (canonical name)."""
    name, _, strategy = spec.partition(":")
    return resolve_backend_name(name), (strategy or None)


def _run_racer(payload, stop_event) -> Result:
    """Racer worker target: solve the race's problem with this engine."""
    _fire_fault("racer", payload["spec"])
    backend = get_backend(payload["backend"])
    config: PipelineConfig = payload["config"]
    if payload["kind"] == DECISION:
        problem: Problem = DecisionProblem(payload["graph"], payload["k"])
    else:
        problem = ChromaticProblem(payload["graph"], payload["max_colors"])
    return run_framed(backend, problem, config,
                      RunContext(cancel=stop_event.is_set))


class PortfolioBackend(Backend):
    """Race the configured engines; first conclusive answer wins.

    See the module docstring for the failure model (retry once, then
    drop the racer).  The merged Result is the winner's, with a
    ``race`` stage recording the field, the winner, how many racers
    were cancelled, and the bounds of the answers collected; when no
    racer is individually conclusive the best verified coloring is
    returned, upgraded to OPTIMAL if another answer's lower bound
    meets it.
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
        return _race(problem, config, ctx)


def _racer_config(config: PipelineConfig, name: str,
                  strategy: Optional[str],
                  time_limit: Optional[float]) -> PipelineConfig:
    """The racer's own config: its backend, strategy and time limit."""
    from dataclasses import replace

    return config.with_stage(solve=replace(
        config.solve,
        backend=name,
        strategy=strategy if strategy is not None else config.solve.strategy,
        time_limit=time_limit,
    ))


def _race(problem: Problem, config: PipelineConfig, ctx: RunContext) -> Result:
    t0 = time.monotonic()
    specs = tuple(config.solve.racers)
    parsed = [parse_racer(spec) for spec in specs]
    # The run's one deadline bounds every racer, a relaunched one too.
    deadline = ctx.deadline
    stop_event = multiprocessing.get_context().Event()
    registry = get_registry()
    tracer = active_tracer()
    registry.inc("race_runs_total")
    if tracer is not None:
        tracer.race_begin(len(specs))
    ctx.emit("race", f"racing {len(specs)} engines: {', '.join(specs)}")
    flights: Dict[int, Worker] = {}
    retries = [0] * len(specs)
    results: Dict[int, Result] = {}

    def launch(index: int) -> None:
        name, strategy = parsed[index]
        time_limit = deadline.remaining()
        payload = {
            "spec": specs[index],
            "backend": name,
            "kind": problem.kind,
            "graph": problem.graph,
            "config": _racer_config(config, name, strategy, time_limit),
            "k": getattr(problem, "k", None),
            "max_colors": getattr(problem, "max_colors", None),
        }
        flights[index] = Worker(_run_racer, (payload, stop_event), time_limit)

    if not ctx.cancelled():  # a pre-cancelled run launches nothing
        for index in range(len(specs)):
            launch(index)
    winner_index: Optional[int] = None
    grace: Optional[Deadline] = None  # starts once, when decided or out of time
    cancelled_count = 0
    while flights:
        if ctx.cancelled():
            stop_event.set()
        wait_any(flights.values(), timeout=0.1)
        for index, worker in list(flights.items()):
            reported = worker.poll()
            if reported is None:
                continue
            del flights[index]
            worker.close()  # one job per racer
            kind, value = reported
            if winner_index is not None:
                # The race is decided; this survivor was told to stop.
                cancelled_count += 1
            elif kind == "ok":
                results[index] = value
                if conclusive(value, problem.kind):
                    winner_index = index
            elif kind == "died":
                registry.inc("race_racer_deaths_total")
                if retries[index] < _RACER_RETRIES:
                    ctx.emit("race", f"racer {specs[index]} died; relaunching")
                    retries[index] += 1
                    launch(index)
                else:
                    ctx.emit("race", f"racer {specs[index]} dropped")
            elif kind == "killed":
                registry.inc("race_racer_kills_total")
                ctx.emit("race",
                         f"racer {specs[index]} overran its deadline; killed")
            else:
                registry.inc("race_racer_errors_total")
                ctx.emit("race", f"racer {specs[index]} failed ({value})")
        if grace is None and (winner_index is not None or deadline.expired()):
            # Told to stop, the survivors get a second to report their
            # best-so-far, which is still collected.
            stop_event.set()
            grace = Deadline.after(1.0)
        if grace is not None and grace.expired():
            # Survivors still running a second later are cancelled outright.
            for worker in flights.values():
                worker.stop()
            cancelled_count += len(flights)
            flights.clear()
    ub = lb = None
    if problem.kind == CHROMATIC:
        ub = min((r.num_colors for r in results.values()
                  if r.feasible and r.num_colors is not None), default=None)
        lb = max((r.lower_bound for r in results.values()
                  if r.lower_bound is not None), default=None)
    final = _settle_race(results, winner_index, lb, deadline, ctx)
    # The race's bounds are race-level knowledge: one racer's refutation
    # tightens another's coloring.
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


def _settle_race(results: Dict[int, Result], winner_index: Optional[int],
                 lb: Optional[int], deadline: Deadline,
                 ctx: RunContext) -> Result:
    """The race's merged answer: the winner's, or the best of the field.

    Without an individually conclusive winner, the best coloring across
    the field wins (each racer's frame checked its own) — upgraded to
    OPTIMAL when the race's lower bound meets its color count (one
    racer found the coloring, another refuted the color count below
    it: together they are a proof neither had alone).
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
        )
    if lb is not None and lb >= best.num_colors:
        best.status = OPTIMAL  # the frame gives it its bounds
        best.degraded = False
        best.cancelled = False
    return best
