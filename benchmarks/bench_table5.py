"""Regenerate Table 5 (Appendix): per-instance queens results."""

from repro.experiments.instances import ScalePreset
from repro.experiments.tables import render_table5, table5

QUEENS_SCALE = ScalePreset(
    name="bench-queens", instance_names=("queen5_5",),
    k_primary=7, k_secondary=9, time_limit=5.0,
    detection_node_limit=20000, solvers=("pbs2", "pueblo"),
)


def test_table5(run_once, bench_json):
    (records, seconds) = bench_json.timed(run_once, table5, QUEENS_SCALE)
    print()
    print(render_table5(records, QUEENS_SCALE.time_limit))
    for r in records:
        bench_json.add(
            f"{r.instance}-{r.solver}-{r.sbp_kind}"
            f"{'-sbps' if r.instance_dependent else ''}",
            k=r.k, status=r.status, wall_seconds=round(r.seconds, 4),
        )
    bench_json.add("table5-total", wall_seconds=seconds)
    # queen5_5 at K=7 is easy with symmetry breaking: at least the
    # NU+SC and instance-dependent configurations must solve it.
    solved = {(r.sbp_kind, r.instance_dependent) for r in records if r.solved}
    assert ("nu+sc", False) in solved
    assert any(inst_dep for (_, inst_dep) in solved)
