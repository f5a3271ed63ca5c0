"""Regenerate Table 2: formula sizes, symmetry counts, detection time."""

from repro.experiments.tables import render_table2, table2


def test_table2(run_once, bench_scale, bench_json):
    (rows, seconds) = bench_json.timed(run_once, table2, bench_scale)
    print()
    print(render_table2(rows))
    for r in rows:
        bench_json.add(
            f"sbp-{r.sbp_kind}", generators=r.num_generators,
            symmetry_order=r.order, wall_seconds=r.detection_seconds,
        )
    bench_json.add("table2-total", wall_seconds=seconds)
    by_kind = {r.sbp_kind: r for r in rows}
    # Paper trends: NU/CA shrink the group, LI leaves only the identity,
    # SC barely changes it, detection is fastest once symmetry is gone.
    assert by_kind["li"].order == len(bench_scale.instance_names)
    assert by_kind["nu"].order < by_kind["none"].order
    assert by_kind["ca"].order < by_kind["none"].order
    assert by_kind["sc"].order > by_kind["nu"].order
    assert by_kind["li"].detection_seconds <= by_kind["none"].detection_seconds
