"""Execution-layer benchmarks: a disconnected descent and the portfolio race.

A disconnected kernel gets one persistent descent over all of its
components; the portfolio backend races whole engines and returns the
first conclusive answer.  This module measures both on ~equal-hardness
random graphs and records the results in ``BENCH_parallel.json``:

* the descent on a 3-component union: wall seconds (min of ``_REPS``
  runs — min-of-reps is the stable estimator on a shared runner) plus
  the answer counters it must reproduce exactly,
* the portfolio race on one component: wall seconds, winner, and the
  race's bounds, taken from the racers' answers (the race must finish
  far below the per-engine budget because the first conclusive racer
  cancels the rest).

``scripts/check_bench.py`` gates the deterministic counters (chromatic
numbers, solver count, race status) exactly against the committed
baseline.
"""

import time

from repro.api import ChromaticProblem, Pipeline
from repro.graphs.generators import gnp_graph
from repro.graphs.graph import disjoint_union

# Three ~1.4s components (chi 7 each, no clique shortcut).
_SEEDS = (3, 9, 14)
_REPS = 2
_TIME_LIMIT = 120


def test_whole_kernel_descent_on_three_gnp_components(bench_json):
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
    components = result.stage("reduce").details["components"]
    assert components == len(_SEEDS)
    assert result.solvers_created == 1
    assert graph.is_proper_coloring(result.coloring)
    bench_json.add(
        "union-3xgnp42-descent",
        chromatic_number=result.chromatic_number,
        components=components,
        solvers_created=result.solvers_created,
        conflicts=result.stats.conflicts,
        wall_seconds=round(best, 4),
    )
    print(f"\n  union descent: {best:.2f}s over {components} components")


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
    assert graph.is_proper_coloring(result.coloring)
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
