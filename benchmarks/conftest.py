"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures at the
``bench`` scale (seconds per table) and prints the reproduced rows, so
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
run.  Use ``python -m repro.experiments all --scale small|paper`` for
the larger-scale versions.

Every ``bench_<name>.py`` module additionally emits a machine-readable
``BENCH_<name>.json`` next to itself through the :func:`bench_json`
fixture — one entry per measured configuration with whatever fields
apply (instance, K queries, conflicts, propagations, wall seconds) —
so the perf trajectory of the repo can be tracked across commits
(``make bench-json`` regenerates all of them quickly).
"""

import json
import os
import time

import pytest

from repro.experiments.instances import get_scale


@pytest.fixture(scope="session")
def bench_scale():
    return get_scale("bench")


@pytest.fixture
def run_once(benchmark):
    """``run_once(fn, *args, **kwargs)``: run a table driver exactly once
    under the benchmark timer.

    Table drivers are minutes-long compared to microbenchmarks; a single
    timed round keeps the harness usable while still recording the
    regeneration cost.  It is a fixture, so no bench module imports
    ``conftest`` by name: ``tests/conftest.py`` is a top-level
    ``conftest`` module too, and a pytest run over both directories
    would hand a bench module that one.
    """
    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run


class BenchReport:
    """Collects benchmark entries and writes them as ``BENCH_<name>.json``."""

    def __init__(self, name: str, path: str):
        self.name = name
        self.path = path
        self.results = []

    def add(self, instance: str, **fields) -> None:
        """Record one measured configuration.

        ``instance`` names what was measured; keyword fields carry the
        numbers (k_queries, conflicts, propagations, wall_seconds, ...).
        """
        entry = {"instance": instance}
        entry.update(fields)
        self.results.append(entry)

    @staticmethod
    def timed(fn, *args, **kwargs):
        """Run ``fn`` and return ``(result, wall_seconds)``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start

    def write(self) -> None:
        """Write the report, merging over any previous record.

        Partial runs (``-k`` selections, ``--benchmark-only`` skipping
        non-benchmark tests, a failure mid-module) must not clobber a
        complete perf record: entries from this run replace previous
        entries with the same instance name, and instances that did not
        run this time keep their old numbers.
        """
        merged = {}
        try:
            with open(self.path) as fh:
                for entry in json.load(fh).get("results", ()):
                    merged.setdefault(entry.get("instance"), []).append(entry)
        except (OSError, ValueError):
            pass
        fresh = {}
        for entry in self.results:
            fresh.setdefault(entry["instance"], []).append(entry)
        merged.update(fresh)
        results = [e for entries in merged.values() for e in entries]
        results.sort(key=lambda e: str(e.get("instance")))
        payload = {"bench": self.name, "results": results}
        with open(self.path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


@pytest.fixture(scope="module")
def bench_json(request):
    """Module-scoped JSON report; written on module teardown."""
    stem = request.module.__name__
    if stem.startswith("bench_"):
        stem = stem[len("bench_"):]
    path = os.path.join(
        os.path.dirname(request.module.__file__), f"BENCH_{stem}.json"
    )
    report = BenchReport(stem, path)
    yield report
    report.write()
