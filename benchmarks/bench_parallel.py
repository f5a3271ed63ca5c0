"""Execution-layer head-to-heads: pool tiers and the portfolio race.

The component pool has two execution tiers (sequential and
process-backed) that must agree on every answer while differing only
in wall-clock; the portfolio backend races whole engines and returns
the first conclusive answer.  This module measures them on a
3-component union of ~equal-hardness random graphs and records the
results in ``BENCH_parallel.json``:

* per-tier wall seconds (min of ``_REPS`` runs — min-of-reps is the
  stable estimator on a shared runner) plus the answer counters every
  tier must reproduce exactly,
* ``process_vs_sequential_speedup`` — the reason the process tier
  exists.  No tier can beat sequential on a single core, so the bench
  bounds the process tier's overhead instead of demanding a speedup.
  ``cpus`` is recorded alongside so a baseline from one machine class
  is interpretable on another,
* the portfolio race on one component: wall seconds, winner, and the
  exchanged bounds (the race must finish far below the per-engine
  budget because the first conclusive racer cancels the rest).

``scripts/check_bench.py`` gates the deterministic counters (chromatic
numbers, component/solver counts, race status) exactly against the
committed baseline.
"""

import multiprocessing
import time

from repro.api import ChromaticProblem, Pipeline
from repro.coloring.verify import is_proper
from repro.graphs.generators import gnp_graph
from repro.graphs.graph import disjoint_union

# Three ~1.4s-sequential components (chi 7 each, no clique shortcut):
# equal hardness keeps the parallel schedule balanced, so the tier
# comparison measures the executor, not the workload skew.
_SEEDS = (3, 9, 14)
_REPS = 2
_TIME_LIMIT = 120


def _union():
    return disjoint_union(*(gnp_graph(42, 0.4, seed=s) for s in _SEEDS))


def _run_tier(graph, **solve_kwargs):
    return (
        Pipeline()
        .solve(backend="cdcl-incremental", time_limit=_TIME_LIMIT,
               **solve_kwargs)
        .run(ChromaticProblem(graph))
    )


def test_pool_tiers_process_vs_sequential(bench_json):
    graph = _union()
    tiers = {
        "sequential": {},
        "processes": {"pool_jobs": len(_SEEDS)},
    }
    best = {}
    for label, kwargs in tiers.items():
        for _ in range(_REPS):
            t0 = time.perf_counter()
            result = _run_tier(graph, **kwargs)
            wall = time.perf_counter() - t0
            best[label] = min(best.get(label, float("inf")), wall)
        assert result.status == "OPTIMAL", label
        assert result.chromatic_number == 7, label
        assert len(result.components) == len(_SEEDS), label
        assert is_proper(graph, result.coloring), label
        bench_json.add(
            f"pool-tier-{label}",
            chromatic_number=result.chromatic_number,
            components=len(result.components),
            solvers_created=result.solvers_created,
            wall_seconds=round(best[label], 4),
        )
    cpus = multiprocessing.cpu_count()
    vs_sequential = best["sequential"] / best["processes"]
    bench_json.add(
        "pool-tier-aggregate",
        cpus=cpus,
        sequential_seconds=round(best["sequential"], 4),
        processes_seconds=round(best["processes"], 4),
        process_vs_sequential_speedup=round(vs_sequential, 3),
    )
    print(f"\n  pool tiers ({cpus} cpu): sequential {best['sequential']:.2f}s, "
          f"processes {best['processes']:.2f}s "
          f"({vs_sequential:.2f}x vs sequential)")
    # Bound the process tier's overhead (fork + IPC + scheduler): even
    # on one core it must stay within reach of the sequential tier.
    assert vs_sequential >= 0.4, (
        f"process-tier overhead blew up: {vs_sequential:.2f}x vs "
        f"sequential on {cpus} cpus"
    )


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
