"""Differential + structural tests for the portfolio racing backend.

The portfolio's contract mirrors the component pool's: racing several
engines on the same problem NEVER changes answers — the first
conclusive result is exactly what the reference engine
(``cdcl-incremental``) would have produced, because every racer is
sound and complete on the kinds it supports.  The tests here check
that contract differentially, plus the structural pieces: the race
stage record (winner, cancellations, exchanged bounds), first-
conclusive-cancels-the-rest, validation, a race between two CDCL
descents, and the per-query bounds a CDCL racer publishes.
"""

import queue
import threading
from types import SimpleNamespace

import pytest

import repro.api.portfolio as portfolio
from repro.api import (
    ChromaticProblem,
    DecisionProblem,
    Pipeline,
    PipelineConfig,
    Result,
    SolveConfig,
)
from repro.api.portfolio import _run_racer
from repro.coloring.verify import is_proper
from repro.experiments.instances import get_instance
from repro.graphs.generators import gnp_graph, mycielski_graph, queens_graph
from repro.resilience import reset_clock, set_clock

RACERS = ("cdcl-incremental", "pb-pueblo", "exact-dsatur")


def race(problem, **solve_kwargs):
    solve_kwargs.setdefault("time_limit", 120)
    return (
        Pipeline()
        .solve(backend="portfolio", **solve_kwargs)
        .run(problem)
    )


def reference(problem):
    return (
        Pipeline()
        .solve(backend="cdcl-incremental", time_limit=120)
        .run(problem)
    )


def race_stage(result):
    stage = next((s for s in result.stages if s.name == "race"), None)
    assert stage is not None, "portfolio result carries no race stage"
    return stage


@pytest.mark.parametrize(
    "graph",
    [
        get_instance("myciel3").graph(),
        get_instance("myciel4").graph(),
        queens_graph(5, 5),
        gnp_graph(18, 0.4, seed=7),
    ],
    ids=["myciel3", "myciel4", "queen5_5", "gnp18"],
)
def test_portfolio_matches_reference_chromatic(graph):
    """The differential property: racing changes wall-clock, never answers."""
    raced = race(ChromaticProblem(graph))
    ref = reference(ChromaticProblem(graph))
    assert ref.status == "OPTIMAL"
    assert raced.status == "OPTIMAL"
    assert raced.chromatic_number == ref.chromatic_number
    assert raced.coloring is not None
    assert is_proper(graph, raced.coloring)
    assert len(set(raced.coloring.values())) == raced.chromatic_number


def test_portfolio_first_conclusive_cancels_the_rest():
    result = race(ChromaticProblem(get_instance("myciel4").graph()))
    stage = race_stage(result)
    assert tuple(stage.details["racers"]) == RACERS
    assert stage.details["winner"] in RACERS
    # Exactly the losers get cancelled: the winner's answer is in hand,
    # so nobody runs to their own deadline.
    assert stage.details["cancelled"] == len(RACERS) - 1
    # Bounds met at the optimum: the exchanged ub/lb close the window.
    assert stage.details["ub"] == stage.details["lb"] == 5
    assert result.upper_bound == result.lower_bound == 5


@pytest.mark.parametrize("k,expected", [(4, "UNSAT"), (5, "SAT")])
def test_portfolio_decision_queries(k, expected):
    graph = get_instance("myciel4").graph()  # chromatic number 5
    raced = race(DecisionProblem(graph, k))
    assert raced.status == expected
    if expected == "SAT":
        assert raced.coloring is not None
        assert is_proper(graph, raced.coloring)
        assert len(set(raced.coloring.values())) <= k


def test_portfolio_two_cdcl_descents_match_reference():
    """Two ``cdcl-incremental`` descents (linear and binary) race each
    other and the DSATUR search, exchanging per-query bounds; the
    merged answer is the reference optimum."""
    graph = get_instance("myciel4").graph()
    raced = race(
        ChromaticProblem(graph),
        racers=("cdcl-incremental:linear", "cdcl-incremental:binary",
                "exact-dsatur"),
    )
    ref = reference(ChromaticProblem(graph))
    assert raced.status == "OPTIMAL"
    assert raced.chromatic_number == ref.chromatic_number == 5
    assert is_proper(graph, raced.coloring)


@pytest.mark.parametrize("graph,chi", [
    (queens_graph(7, 7), 7),       # SAT queries down from DSATUR's 11
    (mycielski_graph(4), 5),       # UNSAT queries up from the clique's 2
], ids=["queen7_7", "myciel4"])
@pytest.mark.parametrize("strategy", ["linear", "binary"])
def test_cdcl_racer_publishes_a_bound_per_query(strategy, graph, chi):
    """Run in-process, a ``cdcl-incremental`` chromatic racer puts
    ``ub = k`` on the bound queue for each SAT query and ``lb = k + 1``
    for each UNSAT one, in query order, before its final bounds."""
    payload = {
        "index": 3, "spec": f"cdcl-incremental:{strategy}",
        "backend": "cdcl-incremental", "kind": "chromatic", "graph": graph,
        "config": PipelineConfig(solve=SolveConfig(
            backend="cdcl-incremental", strategy=strategy, time_limit=60)),
        "k": None, "max_colors": None,
    }
    bounds = queue.Queue()
    result = _run_racer(payload, threading.Event(), SimpleNamespace(value=0),
                        SimpleNamespace(value=0), bounds)
    published = []
    while not bounds.empty():
        published.append(bounds.get_nowait())
    per_query = [(3, "ub", k) if status == "SAT" else (3, "lb", k + 1)
                 for k, status in result.queries]
    assert result.status == "OPTIMAL" and result.queries
    assert published == per_query + [(3, "ub", chi), (3, "lb", chi)]


def test_portfolio_cancellation_returns_cancelled_result():
    result = (
        Pipeline()
        .solve(backend="portfolio", time_limit=120)
        .run(ChromaticProblem(mycielski_graph(4)), cancel=lambda: True)
    )
    assert result.cancelled
    assert result.status in ("FEASIBLE", "UNKNOWN")


def test_a_relaunched_racer_gets_only_what_is_left_of_the_run(monkeypatch):
    """A racer that dies 1 s into a 2 s race is relaunched with the 1 s
    the run's deadline has left, as its time limit and its kill limit."""
    now = [100.0]
    launches = []

    class FakeWorker:
        def __init__(self, target, args, limit):
            payload = args[0]
            self.index = payload["index"]
            self.dies = self.index == 0 and not launches
            launches.append(
                (self.index, payload["config"].solve.time_limit, limit))

        def poll(self):
            if self.dies:
                now[0] += 1.0
                return ("died", -9)
            return ("ok", Result(status="UNKNOWN"))

        def close(self):
            pass

    monkeypatch.setattr(portfolio, "Worker", FakeWorker)
    monkeypatch.setattr(portfolio, "wait_any", lambda workers, timeout=None: None)
    set_clock(lambda: now[0])
    try:
        result = race(ChromaticProblem(mycielski_graph(3)), time_limit=2.0,
                      racers=("cdcl-incremental", "exact-dsatur"))
    finally:
        reset_clock()
    assert result.status == "UNKNOWN"
    assert [index for index, _, _ in launches] == [0, 1, 0]
    assert [limit for _, limit, _ in launches[:2]] == [2.0, 2.0]
    _, time_limit, kill_limit = launches[2]
    assert time_limit <= 1.0 and kill_limit <= 1.0


def test_portfolio_rejects_degenerate_lineups():
    with pytest.raises(ValueError, match="at least 2"):
        race(ChromaticProblem(mycielski_graph(3)),
             racers=("cdcl-incremental",))
    with pytest.raises(ValueError, match="itself"):
        race(ChromaticProblem(mycielski_graph(3)),
             racers=("portfolio", "cdcl-incremental"))


def test_race_alias_resolves_to_portfolio():
    result = (
        Pipeline()
        .solve(backend="race", time_limit=120)
        .run(ChromaticProblem(get_instance("myciel3").graph()))
    )
    assert result.status == "OPTIMAL"
    assert result.chromatic_number == 4
    assert result.provenance.backend == "portfolio"
