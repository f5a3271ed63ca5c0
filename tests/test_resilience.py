"""The chaos suite: deadlines, the WAL, workers, and injected faults.

The resilience layer's contract, asserted here across every execution
tier (Pipeline / Session / portfolio / batch runner):

* **degradation weakens optimality, never correctness** — a budget that
  expires mid-descent yields ``FEASIBLE`` with a *verified* best-so-far
  coloring and honest bounds, flagged ``degraded``;
* **faults never wedge the runner and never produce a wrong answer** —
  raise-in-stage, sleep-in-query, worker kill and clock skew each end
  in a finalized record whose coloring (if any) is proper;
* **crash-safe resume is exact** — a batch resumed from a torn WAL
  replays completed records byte-identically and re-solves only the
  rest;
* **everything is deterministic** — fault plans and the seeded chaos
  scenario are pure functions of their seeds;
* **one worker primitive** — every job a child process runs is
  reported exactly once (``ok`` / ``error`` / ``died`` / ``killed``);
  a worker runs job after job in one process, re-arms the faults
  before each (``REPRO_FAULTS`` afresh, an inherited plan back at its
  state at fork, the clock unskewed), is reaped when it dies, and
  leaves the parent's tracer alone.

``test_chaos_smoke_seeded_scenario`` is the ``make chaos-smoke`` entry
point: ``CHAOS_SEED`` picks the fault scenario (fixed in PRs, fresh
nightly — mirroring the fuzz-smoke job), so any nightly failure replays
locally from the seed alone.
"""

import json
import multiprocessing
import os
import shutil
import time

import pytest

import repro.api.pipeline as pipeline_module
from repro.api import (
    BudgetedOptimize,
    ChromaticProblem,
    Pipeline,
    Session,
)
from repro.batch import solve_many
from repro.coloring.verify import is_proper
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.graphs.graph import disjoint_union
from repro.obs import active_tracer, tracing
from repro.resilience import (
    Deadline,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    Worker,
    clear_faults,
    corrupt_tail,
    fire,
    install_faults,
    read_wal,
    reset_clock,
    seeded_plan,
    set_clock,
    wait_any,
)
from repro.resilience.budget import current_clock
from repro.resilience.faults import FAULTS_ENV

CHAOS_PLUGIN = "repro.resilience.chaos_plugin"

#: Record fields that legitimately differ between two runs of the same
#: task (wall-clock measurements); everything else must be identical.
VOLATILE_KEYS = {"seconds", "stage_seconds", "solve_seconds", "wall_seconds"}


@pytest.fixture(autouse=True)
def _pristine_harness():
    """Every test starts and ends with no plan and the real clock."""
    clear_faults()
    yield
    clear_faults()
    os.environ.pop(FAULTS_ENV, None)


# ==========================================================================
# Deadline
# ==========================================================================


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    fake = FakeClock()
    set_clock(fake)
    yield fake
    reset_clock()


def test_deadline_unbounded_and_expired_construction(clock):
    unbounded = Deadline.after(None)
    assert not unbounded.bounded
    assert unbounded.remaining() is None
    assert not unbounded.expired()
    # A non-positive allotment is a well-formed, already-expired deadline.
    spent = Deadline.after(-3.0)
    assert spent.expired() and spent.remaining() == 0.0


def test_deadline_remaining_tracks_the_clock(clock):
    deadline = Deadline.after(10.0)
    assert deadline.remaining() == 10.0
    clock.now += 4.0
    assert deadline.remaining() == 6.0
    assert not deadline.expired()
    clock.now += 6.0
    assert deadline.expired() and deadline.remaining() == 0.0
    clock.now += 100.0
    assert deadline.remaining() == 0.0  # clamped, never negative


def test_deadline_child_never_outlives_parent(clock):
    parent = Deadline.after(10.0)
    assert parent.child(None).remaining() == 10.0
    assert parent.child(3.0).remaining() == 3.0
    assert parent.child(100.0).remaining() == 10.0  # clamped to parent
    assert parent.child(-1.0).expired()
    assert Deadline.unbounded().child(5.0).remaining() == 5.0


def test_clock_skew_expires_deadlines_without_sleeping():
    from repro.resilience import fire

    install_faults(
        FaultPlan([FaultSpec(point="solver", kind="skew", at=1, seconds=120.0)])
    )
    deadline = Deadline.after(60.0)
    assert not deadline.expired()
    fire("solver")  # the skew fault replaces the module clock
    assert deadline.expired()
    clear_faults()  # undoes the seam: the real clock comes back
    assert not deadline.expired()


# ==========================================================================
# WAL
# ==========================================================================


def test_wal_round_trip_and_torn_tail(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    records = [{"index": i, "value": "x" * 20} for i in range(3)]
    with open(path, "w") as fh:
        from repro.resilience import append_record

        for record in records:
            append_record(fh, record)
    assert read_wal(path) == (records, 0)
    corrupt_tail(path, cut_bytes=7)
    recovered, dropped = read_wal(path)
    assert recovered == records[:2]
    assert dropped == 1


def test_wal_drops_everything_after_the_first_bad_line(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"index": 0}) + "\n")
        fh.write("NOT JSON\n")
        fh.write(json.dumps({"index": 2}) + "\n")
        fh.write(json.dumps(["not", "a", "dict"]) + "\n")
    records, dropped = read_wal(path)
    assert records == [{"index": 0}]
    assert dropped == 3  # the garbled line and everything after it
    empty = str(tmp_path / "empty.jsonl")
    open(empty, "w").close()
    assert read_wal(empty) == ([], 0)


# ==========================================================================
# Anytime degradation across tiers
# ==========================================================================


def _assert_degraded_but_verified(result, graph):
    assert result.status == "FEASIBLE"
    assert result.degraded
    assert result.feasible and not result.solved
    assert result.coloring is not None
    assert is_proper(graph, result.coloring)
    assert result.upper_bound == result.num_colors
    assert result.lower_bound is not None
    assert result.lower_bound <= result.num_colors


@pytest.mark.parametrize("backend", ["cdcl-incremental", "cdcl-scratch"])
def test_pipeline_budget_expiry_degrades_to_verified_feasible(backend):
    graph = mycielski_graph(4)
    result = (Pipeline().solve(backend=backend, time_limit=1e-9)
              .run(ChromaticProblem(graph)))
    _assert_degraded_but_verified(result, graph)


def test_session_budget_expiry_degrades_to_verified_feasible():
    graph = mycielski_graph(4)
    result = Session(graph).chromatic(time_limit=1e-9)
    _assert_degraded_but_verified(result, graph)


def test_pool_budget_expiry_degrades_to_verified_feasible():
    # A union whose kernel has two components gets one whole-kernel
    # descent, and degrades the same way as a connected graph.
    graph = disjoint_union(mycielski_graph(4), mycielski_graph(3))
    for backend in ("cdcl-incremental", "cdcl-scratch"):
        result = (Pipeline().solve(backend=backend, time_limit=1e-9)
                  .run(ChromaticProblem(graph)))
        _assert_degraded_but_verified(result, graph)


def test_prep_budget_cap_skips_optional_stages_not_the_solve(monkeypatch):
    graph = queens_graph(5, 5)
    monkeypatch.setattr(pipeline_module, "PREP_FRACTION", 0.0)
    result = (Pipeline().symmetry(sbp_kind="nu")
              .solve(backend="pb-pbs2", time_limit=120)
              .run(BudgetedOptimize(graph, 7)))
    assert result.status == "OPTIMAL" and result.num_colors == 5
    skipped = {s.name for s in result.stages if s.details.get("skipped") == "budget"}
    assert {"sbp", "simplify"} <= skipped
    # With budget to spare the same stages run.
    monkeypatch.undo()
    full = (Pipeline().symmetry(sbp_kind="nu")
            .solve(backend="pb-pbs2", time_limit=120)
            .run(BudgetedOptimize(graph, 7)))
    assert full.status == "OPTIMAL" and full.num_colors == 5
    assert not any(s.details.get("skipped") for s in full.stages)


# ==========================================================================
# Fault plans
# ==========================================================================


def test_fault_spec_validation_and_env_round_trip():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(point="solver", kind="explode")
    with pytest.raises(ValueError, match="1-based"):
        FaultSpec(point="solver", kind="raise", at=0)
    plan = FaultPlan([
        FaultSpec(point="attempt", kind="kill", match="cdcl"),
        FaultSpec(point="solver", kind="sleep", at=2, seconds=0.5),
    ])
    again = FaultPlan.from_env(plan.to_env())
    assert again.specs == plan.specs
    assert again.to_env() == plan.to_env()


def test_fault_fires_exactly_once_on_the_nth_matching_hit():
    plan = FaultPlan([FaultSpec(point="solver", kind="raise", at=2)])
    plan.fire("solver")  # hit 1: armed, silent
    plan.fire("stage:solve")  # different point: not a hit
    with pytest.raises(FaultInjected):
        plan.fire("solver")  # hit 2: fires
    plan.fire("solver")  # hit 3: spent, silent
    matched = FaultPlan([FaultSpec(point="attempt", kind="raise", match="cdcl")])
    matched.fire("attempt", "exact-dsatur")  # filtered out by match
    with pytest.raises(FaultInjected):
        matched.fire("attempt", "cdcl-incremental")


def test_seeded_plan_is_a_pure_function_of_the_seed():
    for seed in range(20):
        assert seeded_plan(seed).to_env() == seeded_plan(seed).to_env()
    # The scenario space is actually explored.
    kinds = {spec.kind for seed in range(40) for spec in seeded_plan(seed).specs}
    assert kinds == {"raise", "sleep", "kill", "skew"}


# ==========================================================================
# The worker primitive (every process tier runs through it)
# ==========================================================================


def _echo(value):
    return value


def _raise_boom():
    raise ValueError("boom")


def _exit_3():
    os._exit(3)


def _sleep(seconds):
    time.sleep(seconds)


def _fire_point(point):
    fire(point)


def _tracer_is_dropped():
    return active_tracer() is None


def _pid():
    return os.getpid()


def _clock_offset(point):
    """Fire ``point`` (when given), then how far the clock seam runs ahead."""
    if point:
        fire(point)
    return current_clock()() - time.monotonic()


def _outcome(worker, timeout=30.0):
    """Wait for ``worker``'s one report (bounded: a hang fails the test)."""
    deadline = Deadline.after(timeout)
    while not deadline.expired():
        wait_any([worker], timeout=0.5)
        outcome = worker.poll()
        if outcome is not None:
            assert worker.poll() is None  # reported exactly once
            return outcome
    worker.stop()
    raise AssertionError("worker never reported")


def test_worker_returns_a_picklable_value_as_ok():
    assert _outcome(Worker(_echo, ({"k": [1, 2]},))) == ("ok", {"k": [1, 2]})


def test_worker_reports_a_raising_target_as_error():
    assert _outcome(Worker(_raise_boom)) == ("error", "ValueError: boom")


def test_worker_reports_a_silent_exit_as_died():
    assert _outcome(Worker(_exit_3)) == ("died", 3)


def test_worker_is_killed_past_its_limit_and_reaped():
    start = time.monotonic()
    worker = Worker(_sleep, (60.0,), limit=0.2)
    pid = worker._process.pid
    assert _outcome(worker) == ("killed", None)
    assert time.monotonic() - start < 2.0
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # no zombie left behind


def test_wait_any_with_no_running_job_returns_at_once():
    idle = Worker(_echo, (1,))
    assert _outcome(idle) == ("ok", 1)
    for workers in ([], [idle]):
        start = time.monotonic()
        wait_any(workers, timeout=5.0)
        assert time.monotonic() - start < 0.5
    idle.close()


def test_worker_arms_the_env_fault_plan_without_a_plugin():
    plan = FaultPlan([FaultSpec(point="stage:probe", kind="raise")])
    os.environ[FAULTS_ENV] = plan.to_env()
    kind, message = _outcome(Worker(_fire_point, ("stage:probe",)))
    assert kind == "error"
    assert message.startswith("FaultInjected: injected fault at stage:probe")


def test_worker_child_drops_the_parent_tracer(tmp_path):
    with tracing(str(tmp_path / "run.trace")):
        assert active_tracer() is not None
        assert _outcome(Worker(_tracer_is_dropped)) == ("ok", True)


def test_later_jobs_of_a_worker_find_no_tracer_either(tmp_path):
    with tracing(str(tmp_path / "run.trace")):
        worker = Worker(_echo, (1,))
        assert _outcome(worker) == ("ok", 1)
        worker.submit(_tracer_is_dropped)
        assert _outcome(worker) == ("ok", True)
        worker.close()


def test_worker_runs_jobs_one_after_another_in_one_process():
    worker = Worker(_pid)
    kind, pid = _outcome(worker)
    assert kind == "ok" and pid != os.getpid()
    assert worker.idle
    worker.submit(_echo, ("second",))
    assert not worker.idle
    with pytest.raises(RuntimeError, match="idle"):
        worker.submit(_pid)  # one job at a time
    assert _outcome(worker) == ("ok", "second")
    worker.submit(_pid)
    assert _outcome(worker) == ("ok", pid)
    worker.close()
    assert not worker.idle and worker.poll() is None
    assert multiprocessing.active_children() == []


def test_a_raising_job_leaves_the_worker_usable():
    worker = Worker(_raise_boom)
    assert _outcome(worker) == ("error", "ValueError: boom")
    assert worker.idle
    worker.submit(_echo, (7,))
    assert _outcome(worker) == ("ok", 7)
    worker.close()


def test_an_env_fault_fires_on_every_job_of_a_reused_worker():
    # Counters restart per job, as in a fresh fork: an at=1 fault fires
    # on the first hit of every job, not once per worker.
    plan = FaultPlan([FaultSpec(point="stage:probe", kind="raise", at=1)])
    os.environ[FAULTS_ENV] = plan.to_env()
    worker = Worker(_fire_point, ("stage:probe",))
    for job in range(3):
        if job:
            worker.submit(_fire_point, ("stage:probe",))
        kind, message = _outcome(worker)
        assert kind == "error"
        assert message.startswith("FaultInjected: injected fault at stage:probe")
    worker.close()


def test_an_inherited_plan_is_back_at_its_fork_state_for_every_job():
    plan = FaultPlan([FaultSpec(point="stage:probe", kind="raise", at=2)])
    install_faults(plan)
    fire("stage:probe")  # hit 1 in the parent, before the fork
    worker = Worker(_fire_point, ("stage:probe",))
    for job in range(2):
        if job:
            worker.submit(_fire_point, ("stage:probe",))
        kind, _ = _outcome(worker)
        assert kind == "error"  # hit 2 in every job
    worker.close()


def test_a_skew_in_one_job_does_not_reach_the_next_jobs_clock():
    install_faults(
        FaultPlan([FaultSpec(point="solver", kind="skew", at=1, seconds=1000.0)])
    )
    worker = Worker(_clock_offset, ("solver",))
    kind, offset = _outcome(worker)
    assert kind == "ok" and offset > 900.0
    worker.submit(_clock_offset, ("",))
    kind, offset = _outcome(worker)
    assert kind == "ok" and abs(offset) < 1.0
    worker.close()


def test_a_killed_job_leaves_neither_a_worker_nor_a_zombie():
    worker = Worker(_echo, (1,))
    assert _outcome(worker) == ("ok", 1)
    pid = worker._process.pid
    time.sleep(0.3)  # idle time does not count against the next job
    submitted = time.monotonic()
    worker.submit(_sleep, (60.0,), limit=0.2)
    assert _outcome(worker) == ("killed", None)
    # Killed 0.2 + max(1.0, 0.1) seconds after the job started.
    assert 1.2 <= time.monotonic() - submitted < 3.0
    assert not worker.idle
    with pytest.raises(RuntimeError):
        worker.submit(_echo, (2,))
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    assert multiprocessing.active_children() == []


# ==========================================================================
# Fault x tier matrix (through the batch runner: faults must finalize a
# record, never wedge the fleet, never yield an unverified coloring)
# ==========================================================================


def test_fault_raise_in_stage_promotes_to_fallback():
    install_faults(FaultPlan([FaultSpec(point="stage:solve", kind="raise")]))
    report = solve_many(
        [{"graph": "myciel3", "fallback": ["exact-dsatur"]}], jobs=0,
        include_colorings=True,
    )
    record = report.records[0]
    assert [a["outcome"] for a in record["attempts"]] == ["error", "ok"]
    assert record["status"] == "OPTIMAL" and record["num_colors"] == 4
    assert record["backend"] == "exact-dsatur"
    coloring = {int(v): c for v, c in record["coloring"].items()}
    assert is_proper(mycielski_graph(3), coloring)


def test_fault_sleep_in_query_times_out_with_verified_bound():
    install_faults(
        FaultPlan([FaultSpec(point="solver", kind="sleep", at=1, seconds=0.5)])
    )
    report = solve_many(
        [{"graph": "myciel4"}], jobs=0, task_timeout=0.2,
        include_colorings=True,
    )
    record = report.records[0]
    assert record["outcome"] == "timeout"
    assert record["status"] == "FEASIBLE" and record["degraded"] is True
    assert record["num_colors"] >= 5
    coloring = {int(v): c for v, c in record["coloring"].items()}
    assert is_proper(mycielski_graph(4), coloring)


def test_fault_clock_skew_degrades_instead_of_lying():
    install_faults(
        FaultPlan([FaultSpec(point="solver", kind="skew", at=1, seconds=1000.0)])
    )
    report = solve_many(
        [{"graph": "myciel4"}], jobs=0, task_timeout=30.0,
        include_colorings=True,
    )
    record = report.records[0]
    assert record["outcome"] == "timeout"
    assert record["status"] == "FEASIBLE" and record["degraded"] is True
    coloring = {int(v): c for v, c in record["coloring"].items()}
    assert is_proper(mycielski_graph(4), coloring)


def test_fault_worker_kill_retries_then_falls_back():
    # Hit counters are per-process: a fresh worker re-arms the plan, so
    # the match filter (backend name) is what lets the fallback through.
    plan = FaultPlan([FaultSpec(point="attempt", kind="kill", match="cdcl")])
    os.environ[FAULTS_ENV] = plan.to_env()
    report = solve_many(
        [{"graph": "myciel3", "fallback": ["exact-dsatur"]}],
        jobs=1, retries=1, plugins=[CHAOS_PLUGIN], include_colorings=True,
    )
    record = report.records[0]
    assert [a["outcome"] for a in record["attempts"]] == ["died", "died", "ok"]
    assert record["status"] == "OPTIMAL" and record["num_colors"] == 4
    assert record["backend"] == "exact-dsatur"
    coloring = {int(v): c for v, c in record["coloring"].items()}
    assert is_proper(mycielski_graph(3), coloring)


def test_fault_racer_kill_mid_race_still_answers():
    """A racer SIGKILLed at its entry point (and again on its one
    retry — plan counters are per-process) drops out of the race; the
    survivors still deliver the proved optimum."""
    plan = FaultPlan([FaultSpec(point="racer", kind="kill", match="cdcl")])
    os.environ[FAULTS_ENV] = plan.to_env()
    graph = mycielski_graph(4)
    result = (
        Pipeline()
        .solve(backend="portfolio", time_limit=60)
        .run(ChromaticProblem(graph))
    )
    assert result.status == "OPTIMAL"
    assert result.chromatic_number == 5
    assert is_proper(graph, result.coloring)
    stage = next(s for s in result.stages if s.name == "race")
    assert stage.details["winner"] in ("pb-pueblo", "exact-dsatur")


# ==========================================================================
# Crash-safe resume
# ==========================================================================


def _scrub(value):
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


def test_resume_from_torn_wal_equals_uninterrupted_run(tmp_path):
    tasks = [{"graph": "myciel3"}, {"graph": "myciel4"}, {"graph": "queen5_5"}]
    full = str(tmp_path / "full.jsonl")
    solve_many(tasks, jobs=0, jsonl_path=full)
    full_lines = open(full).read().splitlines()
    assert len(full_lines) == 4  # 3 records + summary

    # Crash after two records: keep them, tear the third mid-line.
    partial = str(tmp_path / "partial.jsonl")
    shutil.copy(full, partial)
    with open(partial, "w") as fh:
        fh.write("\n".join(full_lines[:3]))  # third line unterminated
    corrupt_tail(partial, cut_bytes=9)

    records, dropped = read_wal(partial)
    assert dropped == 1 and len(records) == 2
    resumed = str(tmp_path / "resumed.jsonl")
    solve_many(tasks, jobs=0, jsonl_path=resumed, resume_records=records)
    resumed_lines = open(resumed).read().splitlines()
    # Replayed records are byte-identical; the re-solved record and the
    # summary agree modulo wall-clock fields.
    assert resumed_lines[:2] == full_lines[:2]
    assert [_scrub(json.loads(line)) for line in resumed_lines] == [
        _scrub(json.loads(line)) for line in full_lines
    ]


def test_resume_ignores_records_from_a_different_manifest():
    # A record that does not name this manifest's task at that index is
    # dropped and the task re-runs — resuming against the wrong WAL can
    # waste work but never fabricate an answer.
    report = solve_many(
        [{"graph": "myciel3"}], jobs=0,
        resume_records=[
            {"index": 0, "task": "somethingelse", "status": "ERROR"},
            {"index": 99, "task": "myciel3", "status": "ERROR"},
            {"index": "zero", "task": "myciel3", "status": "ERROR"},
        ],
    )
    record = report.records[0]
    assert record["status"] == "OPTIMAL" and record["num_colors"] == 4


def test_cli_resume_flag_end_to_end(tmp_path, capsys):
    from repro.__main__ import main as repro_main

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        {"tasks": [{"graph": "myciel3"}, {"graph": "queen5_5"}]}
    ))
    out = str(tmp_path / "out.jsonl")
    assert repro_main(["batch", str(manifest), "--out", out, "--quiet"]) == 0
    lines = open(out).read().splitlines()
    # Crash mid-second-record, resume in place.
    with open(out, "w") as fh:
        fh.write(lines[0] + "\n" + lines[1][:25])
    assert repro_main(
        ["batch", str(manifest), "--out", out, "--resume", out]
    ) == 0
    resumed = open(out).read().splitlines()
    assert resumed[0] == lines[0]
    assert _scrub(json.loads(resumed[1])) == _scrub(json.loads(lines[1]))
    err = capsys.readouterr().err
    assert "1 torn/corrupt line(s) dropped" in err


# ==========================================================================
# The seeded chaos smoke (the `make chaos-smoke` entry point)
# ==========================================================================

_UNION = disjoint_union(*(mycielski_graph(3) for _ in range(3)))
_EXPECTED_CHI = {"myciel3": 4, "queen5_5": 5, "queen7_7": 7, "3xmyciel3": 4}
_GRAPHS = {"myciel3": mycielski_graph(3), "queen5_5": queens_graph(5, 5),
           "queen7_7": queens_graph(7, 7), "3xmyciel3": _UNION}
# The smoke's batch reaches every point a seeded plan arms (hit 1-3)
# at least three times per attempt.  The 0-1 ILP task runs its formula
# stages once per kernel component, three here, so it emits
# ``stage:encode`` and ``stage:solve`` three times; queen7_7's linear
# CDCL descent from DSATUR's 11 colors asks K = 10, 9, 8 and 7, so it
# makes four solver calls and emits four ``query`` events.
_CHAOS_TASKS = [
    {"graph": {"vertices": _UNION.num_vertices,
               "edges": [list(e) for e in _UNION.edges()]},
     "name": "3xmyciel3", "kind": "budgeted", "max_colors": 5,
     "backend": "pb-pbs2", "fallback": ["exact-dsatur"]},
    {"graph": "queen7_7", "fallback": ["exact-dsatur"]},
]


def _assert_chaos_invariants(report, tasks):
    assert len(report.records) == len(tasks)
    for record in report.records:
        name = record["task"]
        chi = _EXPECTED_CHI[name]
        assert record["outcome"] in ("ok", "timeout", "error", "died")
        if record["status"] == "OPTIMAL":
            assert record["num_colors"] == chi
        elif record["status"] == "FEASIBLE":
            assert record["degraded"] is True
            assert record["num_colors"] >= chi
        if record.get("coloring"):
            coloring = {int(v): c for v, c in record["coloring"].items()}
            assert is_proper(_GRAPHS[name], coloring)
            assert len(set(coloring.values())) == record["num_colors"]
    summary = report.summary
    assert sum(summary["outcomes"].values()) == len(tasks)


def test_chaos_smoke_seeded_scenario():
    """One seeded fault scenario against a small fleet: whatever the
    fault does, every record finalizes, no coloring is improper, and no
    reported chromatic number undercuts the true one."""
    seed = int(os.environ.get("CHAOS_SEED", "0"))
    plan = seeded_plan(seed)
    tasks = _CHAOS_TASKS
    races = any(spec.point == "racer" for spec in plan.specs)
    kills = any(spec.kind == "kill" for spec in plan.specs)
    if races:
        # Worker-kill-during-race: the plan reaches each racer process
        # through the environment; losing a racer must not change
        # answers (the survivors race on).
        os.environ[FAULTS_ENV] = plan.to_env()
        for name in ("myciel3", "queen5_5"):
            graph = _GRAPHS[name]
            result = (
                Pipeline()
                .solve(backend="portfolio", time_limit=30)
                .run(ChromaticProblem(graph))
            )
            assert result.status == "OPTIMAL"
            assert result.chromatic_number == _EXPECTED_CHI[name]
            assert is_proper(graph, result.coloring)
        return
    if kills:
        # Worker kills need real worker processes; the plan reaches
        # them through the environment + the chaos plugin import hook.
        os.environ[FAULTS_ENV] = plan.to_env()
        report = solve_many(
            tasks, jobs=1, retries=1, task_timeout=10.0,
            plugins=[CHAOS_PLUGIN], include_colorings=True,
        )
    else:
        install_faults(plan)
        report = solve_many(
            tasks, jobs=0, retries=1, task_timeout=5.0,
            include_colorings=True,
        )
        clear_faults()
        # A scenario that injects nothing checks nothing.
        assert all(plan._fired), (seed, plan.specs, plan._hits)
    _assert_chaos_invariants(report, tasks)

    # The same scenario through a 2-worker pool over 4 tasks: workers
    # are reused across attempts (the plan re-armed before each) and
    # replaced when a fault kills one.
    os.environ[FAULTS_ENV] = plan.to_env()
    pooled = tasks * 2
    report = solve_many(
        pooled, jobs=2, retries=1, task_timeout=10.0,
        plugins=[CHAOS_PLUGIN], include_colorings=True,
    )
    _assert_chaos_invariants(report, pooled)
    assert multiprocessing.active_children() == []
