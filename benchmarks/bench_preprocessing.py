"""Benchmarks of the CNF simplification pipeline.

Two questions, matching the pipeline's two jobs:

* **subsumption throughput** — the occurrence-list engine
  (:func:`repro.sat.preprocessing.subsume_clauses`) against the
  sorted-once pairwise loop it replaced, on formulas of >= 10k clauses
  (the legacy loop is reproduced below, minus its soundness bug, as the
  measurement baseline), and ``simplify_formula`` on a 0-1 ILP coloring
  encoding where no clause can act;
* **end-to-end effect** — preprocessing a real coloring encoding, and
  the full chromatic-number ``Pipeline`` (peel + split + simplify)
  against the raw path on the paper's sparse families (books, register
  interference), where kernelization routinely deletes the whole graph.
"""

import random
import time

import pytest

from repro.api import ChromaticProblem, Pipeline
from repro.coloring.encoding import encode_coloring
from repro.coloring.sat_pipeline import encode_k_coloring_cnf
from repro.experiments.instances import get_instance
from repro.graphs.generators import book_graph, interference_graph
from repro.sat.preprocessing import preprocess, simplify_formula, subsume_clauses
from repro.sbp.instance_independent import apply_sbp


def random_clauses(num_clauses, num_vars, seed=42, min_width=2, max_width=5):
    """Seeded random CNF; width and polarity drawn uniformly."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(min_width, max_width)
        lits = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(l * rng.choice((1, -1)) for l in lits))
    return clauses


def subsume_quadratic(clauses):
    """The seed's pairwise subsumption loop (soundness bug removed).

    Kept verbatim-in-spirit as the baseline the indexed engine is
    measured against: clauses sorted by length once, every pair (i, j)
    with i < j visited, signature prefilter, no re-queueing.
    """
    def signature(clause):
        sig = 0
        for lit in clause:
            sig |= 1 << (abs(lit) & 63)
        return sig

    ordered = sorted(
        {c for c in clauses if not any(-l in c for l in c)}, key=len
    )
    sigs = [signature(c) for c in ordered]
    sets = [frozenset(c) for c in ordered]
    removed = [False] * len(ordered)
    subsumed = 0
    strengthened = 0
    for i in range(len(ordered)):
        if removed[i]:
            continue
        for j in range(i + 1, len(ordered)):
            if removed[j] or len(ordered[j]) < len(ordered[i]):
                continue
            if sigs[i] & ~sigs[j]:
                continue
            if sets[i] <= sets[j]:
                removed[j] = True
                subsumed += 1
                continue
            diff = sets[i] - sets[j]
            if len(diff) == 1:
                lit = next(iter(diff))
                if -lit in sets[j] and (sets[i] - {lit}) <= sets[j]:
                    new_clause = tuple(l for l in ordered[j] if l != -lit)
                    ordered[j] = new_clause
                    sets[j] = frozenset(new_clause)
                    sigs[j] = signature(new_clause)
                    strengthened += 1
    kept = [c for c, gone in zip(ordered, removed) if not gone]
    return kept, subsumed, strengthened


def test_subsumption_indexed_10k(benchmark, bench_json):
    clauses = random_clauses(10000, 2000)
    kept, subsumed, strengthened = benchmark.pedantic(
        subsume_clauses, args=(clauses,), rounds=3, iterations=1
    )
    assert len(kept) <= len(clauses)
    # One standalone timed run: pedantic round counts differ between
    # --benchmark-only and --benchmark-disable modes.
    _, seconds = bench_json.timed(subsume_clauses, clauses)
    bench_json.add("subsumption-indexed-10k", subsumed=subsumed,
                   strengthened=strengthened,
                   wall_seconds=round(seconds, 4))


def test_indexed_beats_quadratic_10k(request, bench_json):
    # The head-to-head the occurrence-list index exists for: on >= 10k
    # clauses the pairwise loop does ~50M pair visits; the index walks
    # only shared-literal occurrence lists.  The quadratic baseline
    # takes several seconds by design, and the wall-clock comparison
    # only means something on an otherwise idle machine — so skip it in
    # the quick `--benchmark-disable` (make bench-smoke) runs.
    if request.config.getoption("benchmark_disable", False):
        pytest.skip("timing head-to-head runs only in full benchmark mode")
    clauses = random_clauses(10000, 2000)
    start = time.perf_counter()
    kept_idx, sub_idx, str_idx = subsume_clauses(clauses)
    indexed_seconds = time.perf_counter() - start
    start = time.perf_counter()
    kept_quad, sub_quad, str_quad = subsume_quadratic(clauses)
    quadratic_seconds = time.perf_counter() - start
    print(
        f"\n  subsumption @10k clauses: indexed {indexed_seconds:.3f}s "
        f"(sub={sub_idx}, str={str_idx})  quadratic {quadratic_seconds:.3f}s "
        f"(sub={sub_quad}, str={str_quad})  "
        f"speedup {quadratic_seconds / max(indexed_seconds, 1e-9):.1f}x"
    )
    bench_json.add("subsumption-head-to-head",
                   indexed_seconds=round(indexed_seconds, 4),
                   quadratic_seconds=round(quadratic_seconds, 4))
    # Both reach a fully-subsumption-reduced set of comparable size.
    assert abs(len(kept_idx) - len(kept_quad)) <= str_idx + str_quad
    assert indexed_seconds < quadratic_seconds


def test_preprocess_coloring_encoding(benchmark, bench_json):
    # A real CNF from the pipeline: book-graph 5-coloring (~10k clauses
    # once SBP units are included).
    graph = book_graph(250, 900, seed=7)
    formula, _ = encode_k_coloring_cnf(graph, 7, sbp_kind="nu+sc")
    assert len(formula.clauses) >= 10000

    def run():
        return preprocess(formula)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert not result.is_unsat
    assert result.units_propagated >= 1
    _, seconds = bench_json.timed(run)
    bench_json.add("preprocess-book-encoding",
                   units=result.units_propagated,
                   subsumed=result.subsumed,
                   wall_seconds=round(seconds, 4))


def test_simplify_miles250_k20(benchmark, bench_json):
    # The pb-k20 perfbench shape: the 0-1 ILP encoding of miles250 at
    # K=20 with nu+sc, ~10k clauses, 99% binary, none of which can
    # subsume or strengthen another.
    encoding = apply_sbp(encode_coloring(get_instance("miles250").graph(), 20), "nu+sc")

    def run():
        return simplify_formula(encoding.formula)

    _, stats = benchmark.pedantic(run, rounds=3, iterations=1)
    (_, stats), seconds = bench_json.timed(run)
    bench_json.add("simplify-miles250-k20", clauses_after=stats.clauses_after,
                   subsumed=stats.subsumed, strengthened=stats.strengthened,
                   wall_seconds=round(seconds, 4))


def test_pipeline_speedup_sparse_families(benchmark, bench_json):
    # End-to-end: kernelization + simplification vs the raw path on the
    # paper's sparse families.  Answers must match; the pipeline should
    # not be slower (on books/register it peels the whole graph).
    instances = [
        ("book", book_graph(60, 150, seed=3)),
        ("register", interference_graph(40, 90, 5, seed=1)),
    ]

    full = (Pipeline()
            .symmetry(sbp_kind="nu")
            .solve(backend="pb-pbs2", time_limit=60))
    raw_pipe = full.reduce(False).simplify(False)

    def run_pipeline():
        return [
            full.run(ChromaticProblem(g)).num_colors for _, g in instances
        ]

    raw = []
    start = time.perf_counter()
    for _, g in instances:
        raw.append(raw_pipe.run(ChromaticProblem(g)).num_colors)
    raw_seconds = time.perf_counter() - start
    piped = benchmark.pedantic(run_pipeline, rounds=3, iterations=1)
    assert piped == raw
    print(f"\n  sparse families: raw path {raw_seconds:.3f}s "
          f"(chromatic numbers {raw}); pipeline benchmarked above")
    _, piped_seconds = bench_json.timed(run_pipeline)
    bench_json.add("sparse-families-pipeline", chromatic_numbers=piped,
                   raw_seconds=round(raw_seconds, 4),
                   pipeline_seconds=round(piped_seconds, 4))
