"""The batch subsystem: manifests, the fleet runner, and the CLI.

The slow/crashy backends come from ``tests/batch_plugins.py`` via the
batch plugin hook — CI cannot rely on a "naturally slow" instance
staying slow across hardware, so the timeout/fallback/retry paths are
driven by backends that misbehave deterministically.
"""

import json
import os

import pytest

from repro.__main__ import main as repro_main
from repro.api import ChromaticProblem, DecisionProblem
from repro.batch import (
    BatchRunner,
    GraphSpec,
    TaskSpec,
    as_task,
    load_manifest,
    solve_many,
)
from repro.experiments.instances import get_instance
from repro.experiments.runner import run_cell
from repro.graphs.dimacs import write_dimacs_graph
from repro.graphs.generators import mycielski_graph, queens_graph

PLUGIN = os.path.join(os.path.dirname(__file__), "batch_plugins.py")


# ---------------------------------------------------------------- manifests


def test_graph_spec_variants(tmp_path):
    col = str(tmp_path / "m3.col")
    write_dimacs_graph(mycielski_graph(3), col)
    assert GraphSpec.from_value(col).build().num_vertices == 11
    assert GraphSpec.from_value("myciel3").build().num_vertices == 11
    gen = GraphSpec.from_value({"generator": "queens", "args": [4, 4]})
    assert gen.build().num_edges == queens_graph(4, 4).num_edges
    kw = GraphSpec.from_value({"generator": "mycielski", "args": {"k": 3}})
    assert kw.build().num_vertices == 11
    inline = GraphSpec.from_value({"vertices": 3, "edges": [[0, 1], [1, 2]]})
    assert inline.build().num_edges == 2
    roundtrip = GraphSpec.from_value(inline.to_dict())
    assert roundtrip.build().num_edges == 2


def test_graph_spec_validation():
    with pytest.raises(ValueError, match="exactly one"):
        GraphSpec()
    with pytest.raises(ValueError, match="exactly one"):
        GraphSpec(path="a.col", instance="myciel3")
    with pytest.raises(ValueError, match="registered"):
        GraphSpec(generator="nonesuch")
    with pytest.raises(ValueError, match="unknown graph spec fields"):
        GraphSpec.from_value({"instance": "myciel3", "bogus": 1})


def test_task_spec_validation():
    graph = GraphSpec(instance="myciel3")
    with pytest.raises(ValueError, match="unknown problem kind"):
        TaskSpec(graph=graph, kind="nonesuch")
    with pytest.raises(ValueError, match="needs 'k'"):
        TaskSpec(graph=graph, kind="decision")
    with pytest.raises(ValueError, match="needs 'max_colors'"):
        TaskSpec(graph=graph, kind="budgeted")
    with pytest.raises(ValueError, match="unknown task fields"):
        TaskSpec.from_dict({"graph": "myciel3", "bogus": 1})
    # A knob the pipeline no longer has is rejected, not ignored.
    with pytest.raises(ValueError, match="unknown task fields"):
        TaskSpec.from_dict({"graph": "myciel3", "incremental": False})
    with pytest.raises(ValueError, match="'graph'"):
        TaskSpec.from_dict({"kind": "chromatic"})
    task = TaskSpec.from_dict(
        {"graph": "myciel3", "kind": "budgeted", "max_colors": 5,
         "fallback": "cplex-bb,exact-dsatur"})
    assert task.kind == "budgeted-optimize"
    assert task.backends == ("cdcl-incremental", "cplex-bb", "exact-dsatur")
    again = TaskSpec.from_dict(task.to_dict())
    assert again == task


def test_unknown_backend_named_at_construction():
    with pytest.raises(ValueError, match="registered backends"):
        BatchRunner([{"graph": "myciel3", "backend": "nonesuch"}])
    with pytest.raises(ValueError, match="registered backends"):
        BatchRunner([{"graph": "myciel3", "fallback": ["nonesuch"]}])


def test_load_manifest_json_defaults_and_names(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "defaults": {"kind": "decision", "k": 4},
        "tasks": [
            {"graph": "myciel3"},
            {"graph": "myciel3"},
            {"graph": "queen5_5", "kind": "chromatic"},
        ],
    }))
    manifest = load_manifest(str(path))
    assert [t.name for t in manifest.tasks] == ["myciel3", "myciel3#2", "queen5_5"]
    assert manifest.tasks[0].kind == "decision"
    assert manifest.tasks[0].k == 4
    # chromatic override drops the decision default's meaning, not its k
    assert manifest.tasks[2].kind == "chromatic"


def test_load_manifest_jsonl_running_defaults(tmp_path):
    path = tmp_path / "m.jsonl"
    lines = [
        {"defaults": {"backend": "cdcl-scratch"}},
        {"graph": "myciel3"},
        {"defaults": {"backend": "cdcl-incremental"}},
        {"graph": "queen5_5"},
    ]
    path.write_text("\n".join(json.dumps(line) for line in lines))
    manifest = load_manifest(str(path))
    assert [t.backend for t in manifest.tasks] == [
        "cdcl-scratch", "cdcl-incremental"]


def test_as_task_accepts_problems():
    graph = mycielski_graph(3)
    chromatic = as_task(ChromaticProblem(graph))
    assert chromatic.kind == "chromatic"
    assert chromatic.graph.build().num_edges == graph.num_edges
    named = as_task(("my-task", DecisionProblem(graph, 4)))
    assert named.name == "my-task" and named.k == 4
    with pytest.raises(ValueError, match="cannot interpret"):
        as_task(42)


# ------------------------------------------------------------- fleet runner


def test_solve_many_inline_matches_known_answers():
    report = solve_many([
        {"graph": "myciel3"},
        {"graph": "myciel3", "kind": "decision", "k": 3},
        {"graph": {"generator": "queens", "args": [4, 4]},
         "kind": "budgeted", "max_colors": 6, "backend": "pb-pbs2"},
    ], jobs=0)
    statuses = [(r["task"], r["status"], r["num_colors"]) for r in report]
    # (solve_many keeps caller-supplied names as-is; only load_manifest
    # uniquifies duplicates — the tables rely on exact instance names.)
    assert statuses == [
        ("myciel3", "OPTIMAL", 4),
        ("myciel3", "UNSAT", None),
        ("queens(4,4)", "OPTIMAL", 5),
    ]
    assert report.summary["outcomes"] == {"ok": 3}
    assert [r["index"] for r in report] == [0, 1, 2]


def test_solve_many_streams_records_in_manifest_order(tmp_path):
    seen = []
    out = str(tmp_path / "out.jsonl")
    report = solve_many(
        [{"graph": "myciel3"}, {"graph": "queen5_5"}, {"graph": "myciel4",
          "kind": "decision", "k": 5}],
        jobs=2,
        on_record=lambda r: seen.append(r["index"]),
        jsonl_path=out,
    )
    assert seen == [0, 1, 2]
    lines = [json.loads(line) for line in open(out)]
    assert [line["task"] for line in lines[:-1]] == [
        "myciel3", "queen5_5", "myciel4"]
    assert "summary" in lines[-1]
    assert lines[-1]["summary"] == report.summary


def test_cooperative_timeout_promotes_to_fallback():
    report = solve_many(
        [{"graph": "myciel3", "backend": "dozy",
          "fallback": ["cdcl-incremental"]}],
        jobs=1, task_timeout=0.4, plugins=[PLUGIN],
    )
    record = report.records[0]
    assert record["status"] == "OPTIMAL" and record["num_colors"] == 4
    assert record["backend"] == "cdcl-incremental"
    assert [a["outcome"] for a in record["attempts"]] == ["timeout", "ok"]
    assert record["provenance"]["backend"] == "cdcl-incremental"
    assert report.summary["fallback_promotions"] == 1


def test_hard_kill_timeout_promotes_to_fallback():
    report = solve_many(
        [{"graph": "myciel3", "backend": "sleepy",
          "fallback": ["cdcl-incremental"]}],
        jobs=1, task_timeout=0.3, plugins=[PLUGIN],
    )
    record = report.records[0]
    assert record["status"] == "OPTIMAL" and record["num_colors"] == 4
    assert [a["outcome"] for a in record["attempts"]] == ["timeout", "ok"]


def test_timeout_without_fallback_reports_unknown():
    report = solve_many(
        [{"graph": "myciel3", "backend": "dozy"}],
        jobs=1, task_timeout=0.3, plugins=[PLUGIN],
    )
    record = report.records[0]
    assert record["outcome"] == "timeout"
    assert record["status"] == "UNKNOWN"
    assert record["timed_out"] is True


def test_inline_mode_times_out_cooperatively():
    report = solve_many(
        [{"graph": "myciel3", "backend": "dozy",
          "fallback": ["cdcl-incremental"]}],
        jobs=0, task_timeout=0.3, plugins=[PLUGIN],
    )
    record = report.records[0]
    assert record["status"] == "OPTIMAL"
    assert [a["outcome"] for a in record["attempts"]] == ["timeout", "ok"]


def test_worker_death_retries_then_succeeds(tmp_path, monkeypatch):
    marker = str(tmp_path / "crashed-once")
    monkeypatch.setenv("REPRO_CRASH_MARKER", marker)
    report = solve_many(
        [{"graph": "myciel3", "backend": "crash-once"}],
        jobs=1, plugins=[PLUGIN],
    )
    record = report.records[0]
    assert record["status"] == "OPTIMAL" and record["num_colors"] == 4
    assert [a["outcome"] for a in record["attempts"]] == ["died", "ok"]
    assert report.summary["retries"] == 1
    assert os.path.exists(marker)


def test_worker_death_exhausts_retries_then_falls_back(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_MARKER", "")  # crash-once crashes never
    report = solve_many(
        [{"graph": "myciel3", "backend": "always-crash",
          "fallback": ["cdcl-incremental"]}],
        jobs=1, retries=1, plugins=[PLUGIN],
    )
    record = report.records[0]
    assert record["status"] == "OPTIMAL"
    outcomes = [a["outcome"] for a in record["attempts"]]
    assert outcomes == ["died", "died", "ok"]  # retry, then promote


def test_worker_death_without_fallback_is_an_error():
    report = solve_many(
        [{"graph": "myciel3", "backend": "always-crash"}],
        jobs=1, retries=1, plugins=[PLUGIN],
    )
    record = report.records[0]
    assert record["outcome"] == "died"
    assert record["status"] == "ERROR"
    assert len(record["attempts"]) == 2


def test_failed_chain_keeps_best_partial_answer():
    # Attempt 1 (cdcl) times out on the hard K=6 UNSAT proof but has a
    # feasible coloring in hand; attempt 2 (always-crash) dies.  The
    # final record must keep attempt 1's bound, not the crash's ERROR.
    report = solve_many(
        [{"graph": "queen6_6", "fallback": ["always-crash"]}],
        jobs=1, task_timeout=1.0, retries=0, plugins=[PLUGIN],
    )
    record = report.records[0]
    assert record["outcome"] == "died"  # the chain's ending, honestly
    assert record["status"] == "FEASIBLE"  # ...but the bound survives
    assert record["degraded"] is True
    assert record["num_colors"] is not None
    assert record["backend"] == "cdcl-incremental"
    assert [a["outcome"] for a in record["attempts"]] == ["timeout", "died"]


def test_backend_exception_promotes_without_retry():
    # brute refuses queens(4,4) chromatic (k=2 already needs 32 > 22
    # encoding variables), so the chain must advance on "error".
    report = solve_many(
        [{"graph": {"generator": "queens", "args": [4, 4]},
          "backend": "brute", "fallback": ["cdcl-incremental"],
          "reduce": False}],
        jobs=1,
    )
    record = report.records[0]
    assert record["status"] == "OPTIMAL" and record["num_colors"] == 5
    assert [a["outcome"] for a in record["attempts"]] == ["error", "ok"]


def test_run_cell_batch_matches_sequential():
    instances = [get_instance(n) for n in ("myciel3", "myciel4", "queen5_5")]
    kwargs = dict(k=6, solver="pbs2", sbp_kind="nu", instance_dependent=False,
                  time_limit=30.0, detection_node_limit=20000)
    sequential = run_cell(instances, **kwargs)
    parallel = run_cell(instances, jobs=2, **kwargs)
    assert sequential.num_solved == parallel.num_solved == 3
    for left, right in zip(sequential.records, parallel.records):
        assert (left.instance, left.status, left.num_colors, left.solved) == (
            right.instance, right.status, right.num_colors, right.solved)


# ----------------------------------------------------- acceptance: CLI runs


def _acceptance_manifest(tmp_path) -> str:
    """>= 16 instances, one deterministically slow one with a fallback."""
    tasks = [
        {"graph": "myciel3"},
        {"graph": "myciel3", "kind": "decision", "k": 3},
        {"graph": "myciel3", "kind": "decision", "k": 4},
        {"graph": "queen5_5"},
        {"graph": "queen5_5", "kind": "decision", "k": 5},
        {"graph": {"generator": "queens", "args": [4, 4], "name": "q44"}},
        {"graph": {"generator": "queens", "args": [4, 5], "name": "q45"}},
        {"graph": {"generator": "mycielski", "args": [2], "name": "m2"}},
        {"graph": {"generator": "gnm", "args": {"n": 30, "m": 60, "seed": 3},
                   "name": "gnm30"}},
        {"graph": {"generator": "gnm", "args": {"n": 40, "m": 90, "seed": 4},
                   "name": "gnm40"}},
        {"graph": "huck", "kind": "decision", "k": 11},
        {"graph": "jean", "kind": "decision", "k": 10},
        {"graph": "jean", "kind": "budgeted", "max_colors": 11,
         "backend": "pb-pbs2", "sbp_kind": "nu+sc"},
        {"graph": "david", "kind": "budgeted", "max_colors": 12,
         "backend": "pb-pueblo", "sbp_kind": "nu"},
        {"graph": {"generator": "queens", "args": [3, 3], "name": "q33"},
         "backend": "exact-dsatur"},
        {"graph": {"generator": "mycielski", "args": [3], "name": "m3-scratch"},
         "backend": "cdcl-scratch"},
        # The injected slow instance: blocks until the task timeout,
        # then the fallback backend answers it.
        {"graph": "myciel3", "name": "slow-one", "backend": "dozy",
         "fallback": ["cdcl-incremental"]},
    ]
    path = tmp_path / "acceptance.json"
    path.write_text(json.dumps({"tasks": tasks}))
    return str(path)


def _run_cli(manifest: str, out: str, jobs: int) -> list:
    code = repro_main([
        "batch", manifest, "--jobs", str(jobs), "--task-timeout", "2",
        "--plugin", PLUGIN, "--out", out, "--quiet",
    ])
    assert code == 0
    return [json.loads(line) for line in open(out)]


def test_cli_jobs4_matches_jobs1_on_16_instance_manifest(tmp_path):
    """The PR's acceptance gate: --jobs 4 == --jobs 1, manifest order,
    with the slow instance timing out into its fallback backend."""
    manifest = _acceptance_manifest(tmp_path)
    parallel = _run_cli(manifest, str(tmp_path / "p.jsonl"), jobs=4)
    serial = _run_cli(manifest, str(tmp_path / "s.jsonl"), jobs=1)

    par_records, par_summary = parallel[:-1], parallel[-1]["summary"]
    ser_records = serial[:-1]
    assert len(par_records) == len(ser_records) == 17

    def key(record):
        prov = record.get("provenance", {})
        return (record["index"], record["task"], record["status"],
                record["num_colors"], record["backend"],
                record["outcome"], prov.get("backend"))

    assert [key(r) for r in par_records] == [key(r) for r in ser_records]
    # Deterministic manifest order, independent of completion order.
    assert [r["index"] for r in par_records] == list(range(17))
    # Every task conclusively answered (the slow one via its fallback).
    assert all(r["outcome"] == "ok" for r in par_records)
    slow = next(r for r in par_records if r["task"] == "slow-one")
    assert [a["outcome"] for a in slow["attempts"]] == ["timeout", "ok"]
    assert slow["backend"] == "cdcl-incremental"
    assert slow["provenance"]["backend"] == "cdcl-incremental"
    assert par_summary["fallback_promotions"] >= 1
    assert par_summary["jobs"] == 4


def test_cli_stdout_and_exit_codes(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"graph": "myciel3"}]))
    code = repro_main(["batch", str(manifest), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["task"] == "myciel3" and record["status"] == "OPTIMAL"

    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert repro_main(["batch", str(empty)]) == 2

    crashy = tmp_path / "crashy.json"
    crashy.write_text(json.dumps(
        [{"graph": "myciel3", "backend": "always-crash"}]))
    code = repro_main([
        "batch", str(crashy), "--plugin", PLUGIN, "--quiet",
        "--out", str(tmp_path / "crash.jsonl"),
    ])
    assert code == 1


def test_manifest_level_plugins_register_backends(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "plugins": [PLUGIN],
        "tasks": [{"graph": "myciel3", "backend": "dozy",
                   "fallback": ["cdcl-incremental"]}],
    }))
    loaded = load_manifest(str(manifest))
    assert loaded.plugins == (PLUGIN,)
    assert loaded.tasks[0].backend == "dozy"
