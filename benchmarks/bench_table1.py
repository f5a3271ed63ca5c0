"""Regenerate Table 1: benchmark statistics + measured chromatic numbers."""

from repro.experiments.tables import render_table1, table1


def test_table1(run_once, bench_scale, bench_json):
    (rows, seconds) = bench_json.timed(
        run_once, table1, bench_scale, per_instance_budget=5.0
    )
    print()
    print(render_table1(rows, bench_scale.k_primary))
    for r in rows:
        bench_json.add(r.name, chromatic_number=r.measured_chi)
    bench_json.add("table1-total", wall_seconds=seconds)
    by_name = {r.name: r for r in rows}
    # Exact families must reproduce the published chromatic numbers.
    assert by_name["myciel3"].measured_chi == 4
    assert by_name["myciel4"].measured_chi == 5
    assert by_name["queen5_5"].measured_chi == 5
