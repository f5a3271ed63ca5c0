"""Differential + structural tests for the portfolio racing backend.

The portfolio's contract mirrors the component pool's: racing several
engines on the same problem NEVER changes answers — the first
conclusive result is exactly what the reference engine
(``cdcl-incremental``) would have produced, because every racer is
sound and complete on the kinds it supports.  The tests here check
that contract differentially, plus the structural pieces: the race
stage record (winner, cancellations, the race's bounds), first-
conclusive-cancels-the-rest, validation, a race between two CDCL
descents, and the settle step that joins two racers' partial answers
into one proof.
"""

import time

import batch_plugins  # noqa: F401  (registers the "sleepy" and "shrug" racers)
import pytest

import repro.api.portfolio as portfolio
from repro.api import (
    Backend,
    ChromaticProblem,
    DecisionProblem,
    Pipeline,
    Result,
)
from repro.api.backends import _REGISTRY
from repro.experiments.instances import get_instance
from repro.graphs.generators import gnp_graph, mycielski_graph, queens_graph
from repro.graphs.graph import Graph
from repro.obs import scoped_registry
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
    assert graph.is_proper_coloring(raced.coloring)
    assert len(set(raced.coloring.values())) == raced.chromatic_number


def test_portfolio_first_conclusive_cancels_the_rest():
    result = race(ChromaticProblem(get_instance("myciel4").graph()))
    stage = race_stage(result)
    assert tuple(stage.details["racers"]) == RACERS
    assert stage.details["winner"] in RACERS
    # Exactly the losers get cancelled: the winner's answer is in hand,
    # so nobody runs to their own deadline.
    assert stage.details["cancelled"] == len(RACERS) - 1
    # Bounds met at the optimum: the race's ub/lb close the window.
    assert stage.details["ub"] == stage.details["lb"] == 5
    assert result.upper_bound == result.lower_bound == 5


@pytest.mark.parametrize("k,expected", [(4, "UNSAT"), (5, "SAT")])
def test_portfolio_decision_queries(k, expected):
    graph = get_instance("myciel4").graph()  # chromatic number 5
    raced = race(DecisionProblem(graph, k))
    assert raced.status == expected
    if expected == "SAT":
        assert raced.coloring is not None
        assert graph.is_proper_coloring(raced.coloring)
        assert len(set(raced.coloring.values())) <= k


def test_portfolio_two_cdcl_descents_match_reference():
    """Two ``cdcl-incremental`` descents (linear and binary) race each
    other and the DSATUR search; the merged answer is the reference
    optimum."""
    graph = get_instance("myciel4").graph()
    raced = race(
        ChromaticProblem(graph),
        racers=("cdcl-incremental:linear", "cdcl-incremental:binary",
                "exact-dsatur"),
    )
    ref = reference(ChromaticProblem(graph))
    assert raced.status == "OPTIMAL"
    assert raced.chromatic_number == ref.chromatic_number == 5
    assert graph.is_proper_coloring(raced.coloring)


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
            spec = payload["spec"]
            self.dies = spec == "cdcl-incremental" and not launches
            launches.append(
                (spec, payload["config"].solve.time_limit, limit))

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
    assert [spec for spec, _, _ in launches] == [
        "cdcl-incremental", "exact-dsatur", "cdcl-incremental"]
    assert [limit for _, limit, _ in launches[:2]] == [2.0, 2.0]
    _, time_limit, kill_limit = launches[2]
    assert time_limit <= 1.0 and kill_limit <= 1.0


def test_a_race_ends_a_second_after_its_deadline():
    """``sleepy`` ignores its deadline; ``shrug`` answers UNKNOWN at once.
    Once the run's deadline passes, the race stops ``sleepy`` after the
    1 s grace and counts it as cancelled, instead of waiting for the
    worker's kill limit (4.5 s on a 3 s race)."""
    start = time.monotonic()
    with scoped_registry() as registry:
        result = race(ChromaticProblem(mycielski_graph(3)), time_limit=3,
                      racers=("sleepy", "shrug"))
    elapsed = time.monotonic() - start
    counters = registry.snapshot().get("counters", {})
    assert race_stage(result).details["cancelled"] == 1
    assert counters.get("race_racer_kills_total", 0) == 0
    assert elapsed < 4.4


C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])


class ColorsC5WithoutProof(Backend):
    """Test racer: a proper 3-coloring of the 5-cycle, no proof."""

    name = "test-colors-c5"
    description = "test racer: answers SAT with a 3-coloring of C5"

    def run(self, problem, config, ctx):
        return Result(status="SAT", num_colors=3,
                      coloring={0: 1, 1: 2, 2: 1, 3: 2, 4: 3})


class RefutesTwoColors(Backend):
    """Test racer: no coloring, but a proof that 2 colors do not do."""

    name = "test-refutes-two"
    description = "test racer: answers UNKNOWN with lower bound 3"

    def run(self, problem, config, ctx):
        return Result(status="UNKNOWN", lower_bound=3)


def test_the_race_joins_a_coloring_and_a_refutation_into_an_optimum(
        monkeypatch):
    """Neither racer is conclusive alone.  The race's bounds come from
    the answers it holds: ub 3 from the coloring, lb 3 from the other
    racer's refutation, so the settle step upgrades the coloring to
    OPTIMAL."""
    for backend in (ColorsC5WithoutProof(), RefutesTwoColors()):
        monkeypatch.setitem(_REGISTRY, backend.name, backend)
    result = race(ChromaticProblem(C5),
                  racers=("test-colors-c5", "test-refutes-two"))
    stage = race_stage(result)
    assert stage.details["winner"] is None
    assert stage.details["ub"] == stage.details["lb"] == 3
    assert result.status == "OPTIMAL" and result.chromatic_number == 3
    assert result.lower_bound == result.upper_bound == 3
    assert not result.degraded
    assert C5.is_proper_coloring(result.coloring)


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
