"""Experiment runner and table driver tests (bench scale, fast rows)."""

import re

import repro.batch.runner as batch_runner
from repro.experiments.instances import ScalePreset, get_scale
from repro.experiments.runner import CellResult, RunRecord, format_seconds, run_grid
from repro.experiments.tables import (
    render_solver_table,
    render_table1,
    render_table2,
    render_table5,
    solver_table,
    table1,
    table2,
)

FAST = ScalePreset(
    name="test", instance_names=("myciel3", "queen5_5"),
    k_primary=6, k_secondary=7, time_limit=10.0,
    detection_node_limit=20000, solvers=("pbs2",),
)


def test_run_grid_solves_myciel3():
    [record] = run_grid([("myciel3", "nu", "pbs2", False)], 6, 10.0, 20000)
    assert (record.instance, record.sbp_kind, record.solver) == (
        "myciel3", "nu", "pbs2")
    assert record.solved
    assert record.num_colors == 4
    assert record.status == "OPTIMAL"


def test_an_inline_grid_starts_no_child_process(monkeypatch):
    def no_worker(*args, **kwargs):
        raise AssertionError("an inline grid started a worker process")

    monkeypatch.setattr(batch_runner, "Worker", no_worker)
    grid = [("myciel3", "nu", "pbs2", inst_dep) for inst_dep in (False, True)]
    records = run_grid(grid, 6, 10.0, 20000, jobs=0)
    assert [r.solved for r in records] == [True, True]


def test_cell_aggregation():
    cell = CellResult(solver="pbs2", sbp_kind="nu", instance_dependent=False)
    good = RunRecord("a", "pbs2", "nu", False, 6, "OPTIMAL", 4, 1.0, True)
    bad = RunRecord("b", "pbs2", "nu", False, 6, "UNKNOWN", None, 99.0, False)
    cell.add(good, time_limit=10.0)
    cell.add(bad, time_limit=10.0)
    assert cell.num_solved == 1
    assert cell.total_seconds == 1.0 + 10.0  # timeout charged at the limit


def test_format_seconds():
    assert format_seconds(0.52) == "0.5"
    assert format_seconds(123.4) == "123"
    assert format_seconds(2500) == "2.5K"


def test_table1_rows():
    rows = table1(FAST, per_instance_budget=10.0)
    by_name = {r.name: r for r in rows}
    assert by_name["myciel3"].measured_chi == 4
    assert by_name["queen5_5"].measured_chi == 5
    text = render_table1(rows, FAST.k_primary)
    assert "myciel3" in text and "queen5_5" in text


def test_table2_rows_and_trends():
    rows = table2(FAST)
    by_kind = {r.sbp_kind: r for r in rows}
    assert by_kind["li"].order == len(FAST.instance_names)  # identity only
    assert by_kind["none"].order > by_kind["nu"].order
    assert by_kind["sc"].order <= by_kind["none"].order
    assert by_kind["li"].num_vars > by_kind["none"].num_vars  # LI aux vars
    assert by_kind["ca"].num_pb == by_kind["none"].num_pb + 2 * (FAST.k_primary - 1)
    text = render_table2(rows)
    assert "NU+SC" in text


def test_solver_table_smoke():
    table = solver_table(FAST, FAST.k_primary, sbp_rows=("nu",))
    cell = table.cells[("nu", "pbs2", False)]
    assert cell.num_solved == 2
    text = render_solver_table(table, FAST.solvers)
    assert "NU" in text and "pbs2" in text


def test_bench_scale_exists():
    scale = get_scale("bench")
    assert scale.time_limit <= 10.0


def test_table5_has_one_column_per_solver_in_the_records():
    # Two solvers, as at the bench scale: the header names exactly those,
    # in record order, and each row puts its cells under them.
    records = [
        RunRecord("queen5_5", solver, sbp, inst_dep, 6, status, colors, 1.5, solved)
        for sbp in ("none", "nu+sc")
        for solver, status, colors, solved in (
            ("pbs2", "OPTIMAL", 5, True), ("pueblo", "UNKNOWN", None, False))
        for inst_dep in (False, True)
    ]
    header, *rows, legend = render_table5(records, 10.0).splitlines()
    assert re.findall(r"\[(\S+) o/w\]", header) == ["pbs2", "pueblo"]
    assert legend.startswith("entries:")
    assert len(rows) == 2
    width = 18  # one right-aligned column per solver after "Instance SBP "
    start = len(header) - 2 * width
    for row in rows:
        assert len(row) == len(header)
        cells = [row[start + i * width:start + (i + 1) * width].strip()
                 for i in range(2)]
        assert cells == ["1.5/1.5", "T/O/T/O"]
