"""The bench-regression gate's comparison logic (scripts/check_bench.py)."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts", "check_bench.py",
)


@pytest.fixture()
def check_bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BENCH_DIR", str(tmp_path))
    return module


def _write(tmp_path, stem, results):
    path = tmp_path / f"BENCH_{stem}.json"
    path.write_text(json.dumps({"bench": stem, "results": results}))


BASE_SOLVER = [
    {"instance": "descent-aggregate", "conflict_ratio": 1.5},
    {"instance": "descent-myciel4", "incremental": True,
     "conflicts": 1000, "solvers_created": 1},
    {"instance": "descent-myciel4", "incremental": False,
     "conflicts": 2000, "solvers_created": 2},
    {"instance": "descent-queens7_7", "incremental": True,
     "conflicts": 200, "solvers_created": 1},
    {"instance": "smoke-incremental-guard", "solvers_created": 1},
    {"instance": "pigeonhole-7-6", "conflicts": 1100},
]
BASE_PRE = [
    {"instance": "preprocess-book-encoding", "units": 229},
    {"instance": "subsumption-indexed-10k", "subsumed": 13},
]
BASE_PARALLEL = [
    {"instance": "pool-tier-sequential", "chromatic_number": 7},
    {"instance": "portfolio-race-gnp42", "chromatic_number": 7,
     "cancelled": 2, "ub": 7, "lb": 7},
]


def _baselines(module):
    return {"solver_micro": BASE_SOLVER, "preprocessing": BASE_PRE,
            "parallel": BASE_PARALLEL}


def _write_rest(tmp_path, *skip):
    for stem, results in (("solver_micro", BASE_SOLVER),
                          ("preprocessing", BASE_PRE),
                          ("parallel", BASE_PARALLEL)):
        if stem not in skip:
            _write(tmp_path, stem, results)


def test_identical_counters_pass(check_bench, tmp_path):
    _write_rest(tmp_path)
    assert check_bench.check(_baselines(check_bench), slack=1.0) == 0


def test_conflict_growth_beyond_tolerance_fails(check_bench, tmp_path):
    fresh = json.loads(json.dumps(BASE_SOLVER))
    fresh[1]["conflicts"] = 2000  # incremental myciel4 doubled
    _write(tmp_path, "solver_micro", fresh)
    _write_rest(tmp_path, "solver_micro")
    assert check_bench.check(_baselines(check_bench), slack=1.0) == 1
    # ...but a big enough slack factor waives it.
    assert check_bench.check(_baselines(check_bench), slack=10.0) == 0


def test_incremental_ratio_shrink_fails(check_bench, tmp_path):
    fresh = json.loads(json.dumps(BASE_SOLVER))
    fresh[0]["conflict_ratio"] = 1.0  # descent barely beats scratch now
    _write(tmp_path, "solver_micro", fresh)
    _write_rest(tmp_path, "solver_micro")
    assert check_bench.check(_baselines(check_bench), slack=1.0) == 1


def test_extra_solver_creation_fails_exactly(check_bench, tmp_path):
    fresh = json.loads(json.dumps(BASE_SOLVER))
    fresh[4]["solvers_created"] = 2  # descent silently fell back to scratch
    _write(tmp_path, "solver_micro", fresh)
    _write_rest(tmp_path, "solver_micro")
    assert check_bench.check(_baselines(check_bench), slack=1.0) == 1


def test_missing_entry_fails_but_missing_baseline_does_not(check_bench, tmp_path):
    fresh = [e for e in BASE_SOLVER if e["instance"] != "pigeonhole-7-6"]
    _write(tmp_path, "solver_micro", fresh)
    _write_rest(tmp_path, "solver_micro")
    assert check_bench.check(_baselines(check_bench), slack=1.0) == 1

    # A gate with no committed baseline yet reports NEW and passes.
    _write(tmp_path, "solver_micro", BASE_SOLVER)
    baselines = {"solver_micro": [], "preprocessing": BASE_PRE,
                 "parallel": BASE_PARALLEL}
    assert check_bench.check(baselines, slack=1.0) == 0


def test_improvements_always_pass(check_bench, tmp_path):
    fresh = json.loads(json.dumps(BASE_SOLVER))
    fresh[0]["conflict_ratio"] = 3.0   # ratio up: better
    fresh[1]["conflicts"] = 100        # conflicts down: better
    _write(tmp_path, "solver_micro", fresh)
    _write_rest(tmp_path, "solver_micro")
    assert check_bench.check(_baselines(check_bench), slack=1.0) == 0


def test_parallel_answer_drift_fails_exactly(check_bench, tmp_path):
    fresh = json.loads(json.dumps(BASE_PARALLEL))
    fresh[0]["chromatic_number"] = 8  # the component pool changed an answer
    _write(tmp_path, "parallel", fresh)
    _write_rest(tmp_path, "parallel")
    assert check_bench.check(_baselines(check_bench), slack=1.0) == 1
