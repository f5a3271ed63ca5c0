"""Execution-layer benchmarks: the component pool and the portfolio race.

The component pool runs one persistent descent per kernel component,
largest first; the portfolio backend races whole engines and returns
the first conclusive answer.  This module measures both on
~equal-hardness random graphs and records the results in
``BENCH_parallel.json``:

* the pool on a 3-component union: wall seconds (min of ``_REPS`` runs
  — min-of-reps is the stable estimator on a shared runner) plus the
  answer counters it must reproduce exactly,
* the portfolio race on one component: wall seconds, winner, and the
  exchanged bounds (the race must finish far below the per-engine
  budget because the first conclusive racer cancels the rest).

``scripts/check_bench.py`` gates the deterministic counters (chromatic
numbers, race status) exactly against the committed baseline.
"""

import time

from repro.api import ChromaticProblem, Pipeline
from repro.coloring.verify import is_proper
from repro.graphs.generators import gnp_graph
from repro.graphs.graph import disjoint_union

# Three ~1.4s components (chi 7 each, no clique shortcut).
_SEEDS = (3, 9, 14)
_REPS = 2
_TIME_LIMIT = 120


def test_pool_sequential_tier(bench_json):
    graph = disjoint_union(*(gnp_graph(42, 0.4, seed=s) for s in _SEEDS))
    best = float("inf")
    for _ in range(_REPS):
        t0 = time.perf_counter()
        result = (
            Pipeline()
            .solve(backend="cdcl-incremental", time_limit=_TIME_LIMIT)
            .run(ChromaticProblem(graph))
        )
        best = min(best, time.perf_counter() - t0)
    assert result.status == "OPTIMAL"
    assert result.chromatic_number == 7
    assert len(result.components) == len(_SEEDS)
    assert is_proper(graph, result.coloring)
    bench_json.add(
        "pool-tier-sequential",
        chromatic_number=result.chromatic_number,
        components=len(result.components),
        solvers_created=result.solvers_created,
        wall_seconds=round(best, 4),
    )
    print(f"\n  component pool: {best:.2f}s over {len(_SEEDS)} components")


def test_portfolio_race_first_conclusive_wins(bench_json):
    graph = gnp_graph(42, 0.4, seed=_SEEDS[0])
    t0 = time.perf_counter()
    result = (
        Pipeline()
        .solve(backend="portfolio", time_limit=_TIME_LIMIT)
        .run(ChromaticProblem(graph))
    )
    wall = time.perf_counter() - t0
    assert result.status == "OPTIMAL"
    assert result.chromatic_number == 7
    assert is_proper(graph, result.coloring)
    stage = next(s for s in result.stages if s.name == "race")
    assert stage.details["winner"] is not None
    # First-conclusive-cancels-the-rest: the race never runs anywhere
    # near the per-engine budget.
    assert wall < _TIME_LIMIT / 2
    bench_json.add(
        "portfolio-race-gnp42",
        chromatic_number=result.chromatic_number,
        racers=len(stage.details["racers"]),
        cancelled=stage.details["cancelled"],
        ub=stage.details["ub"],
        lb=stage.details["lb"],
        wall_seconds=round(wall, 4),
    )
    print(f"\n  portfolio race: winner {stage.details['winner']} in "
          f"{wall:.2f}s, {stage.details['cancelled']} racer(s) cancelled")
