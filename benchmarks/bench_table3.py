"""Regenerate Table 3: solver x SBP grid at the primary color budget."""

from repro.experiments.tables import render_solver_table, table3


def test_table3(run_once, bench_scale, bench_json):
    (table, seconds) = bench_json.timed(run_once, table3, bench_scale)
    print()
    print(render_solver_table(table, bench_scale.solvers))
    for (sbp, solver, inst_dep), cell in sorted(table.cells.items()):
        bench_json.add(
            f"{solver}-{sbp}{'-sbps' if inst_dep else ''}",
            k=table.k, num_solved=cell.num_solved,
            wall_seconds=round(cell.total_seconds, 4),
        )
    bench_json.add("table3-total", wall_seconds=seconds)
    # Paper trend: instance-dependent SBPs never solve fewer instances
    # than the bare encoding for the specialized solvers.
    for solver in bench_scale.solvers:
        bare = table.cells[("none", solver, False)]
        with_sbps = table.cells[("none", solver, True)]
        assert with_sbps.num_solved >= bare.num_solved
