"""CLI tests (python -m repro and python -m repro.experiments)."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as experiments_main
from repro.graphs.dimacs import write_dimacs_graph
from repro.graphs.generators import mycielski_graph


@pytest.fixture()
def col_file(tmp_path):
    path = str(tmp_path / "myciel3.col")
    write_dimacs_graph(mycielski_graph(3), path)
    return path


def test_stats_command(capsys, col_file):
    assert repro_main(["stats", col_file]) == 0
    out = capsys.readouterr().out
    assert "vertices:    11" in out
    assert "edges:       20" in out


def test_color_command(capsys, col_file):
    code = repro_main(["color", col_file, "--sbp", "nu+sc", "--time-limit", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OPTIMAL" in out
    assert "colors used:      4" in out


def test_color_with_instance_dependent(capsys, col_file):
    code = repro_main([
        "color", col_file, "--instance-dependent", "--k", "5",
        "--time-limit", "60", "--show-coloring",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "symmetry gens:" in out
    assert "vertex 1:" in out


def test_color_pipeline_flags(capsys, col_file):
    code = repro_main(["color", col_file, "--time-limit", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kernel:" in out
    assert "preprocessing:" in out
    assert "colors used:      4" in out

    code = repro_main([
        "color", col_file, "--no-preprocess", "--no-reduce", "--time-limit", "60",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "kernel:" not in out
    assert "preprocessing:" not in out
    assert "colors used:      4" in out


def test_color_unsat_budget(capsys, col_file):
    code = repro_main(["color", col_file, "--k", "3", "--time-limit", "60"])
    out = capsys.readouterr().out
    assert code == 0  # UNSAT is a definitive (solved) outcome
    assert "UNSAT" in out


def test_detect_command(capsys, col_file):
    assert repro_main(["detect", col_file, "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "#S =" in out
    assert "generators:" in out


def test_detect_with_sbp(capsys, col_file):
    assert repro_main(["detect", col_file, "--k", "4", "--sbp", "li"]) == 0
    out = capsys.readouterr().out
    assert "#S = 1" in out  # LI kills every symmetry


def test_experiments_figure1(capsys):
    assert experiments_main(["figure1"]) == 0
    out = capsys.readouterr().out
    assert "48" in out and "12" in out


def test_experiments_unknown_scale():
    with pytest.raises(KeyError):
        experiments_main(["table1", "--scale", "galactic"])


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "color" in result.stdout


def test_chromatic_command(capsys, col_file):
    code = repro_main(["chromatic", col_file, "--time-limit", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OPTIMAL" in out
    assert "chromatic number: 4" in out
    assert "incremental (1 persistent solver)" in out
    assert "K queries:" in out


def test_chromatic_command_scratch_mode(capsys, col_file):
    code = repro_main([
        "chromatic", col_file, "--no-incremental", "--strategy", "binary",
        "--time-limit", "60",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "chromatic number: 4" in out
    assert "scratch" in out


@pytest.mark.parametrize("command", ["stats", "color", "chromatic", "detect", "batch"])
def test_missing_input_file_exits_2_naming_the_path(capsys, tmp_path, command):
    missing = str(tmp_path / "missing.col")
    assert repro_main([command, missing]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: no such file: {missing}"]
    assert captured.out == ""


MALFORMED_GRAPHS = {
    "short-edge": ("p edge 4 2\ne 1\n", "line 2: malformed edge line: 'e 1'"),
    "endpoint-zero": ("p edge 4 2\ne 0 2\n", "line 2: edge endpoint outside 1..4: 'e 0 2'"),
    "endpoint-high": ("p edge 4 2\ne 5 1\n", "line 2: edge endpoint outside 1..4: 'e 5 1'"),
    "non-integer": ("p edge 4 2\ne a b\n", "line 2: malformed edge line: 'e a b'"),
}


@pytest.mark.parametrize("command", ["stats", "color", "chromatic", "detect"])
@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_exits_2_naming_the_line(capsys, tmp_path, command, case):
    text, message = MALFORMED_GRAPHS[case]
    path = tmp_path / "bad.col"
    path.write_text(text)
    assert repro_main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {path}: {message}"]
    assert captured.out == ""


def test_manifest_with_unknown_task_field_exits_2(capsys, tmp_path, col_file):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"graph": col_file, "bogus": 1}]))
    assert repro_main(["batch", str(manifest), "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {manifest}: unknown task fields ['bogus']")
    assert captured.out == ""


def test_missing_resume_log_exits_2_naming_the_path(capsys, tmp_path, col_file):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"graph": col_file}]))
    missing = str(tmp_path / "missing.jsonl")
    code = repro_main(["batch", str(manifest), "--resume", missing,
                       "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: no such file: {missing}"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["batch", "{manifest}", "--jobs", "-1"], "--jobs"),
        (["batch", "{manifest}", "--retries", "-1"], "--retries"),
        (["batch", "{manifest}", "--task-timeout", "0"], "--task-timeout"),
    ],
    ids=["jobs", "retries", "task-timeout"],
)
def test_invalid_worker_counts_are_usage_errors(capsys, tmp_path, col_file,
                                                argv, flag):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"graph": col_file}]))
    argv = [a.format(graph=col_file, manifest=manifest) for a in argv]
    with pytest.raises(SystemExit) as exc:
        repro_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err
    assert "Traceback" not in err
