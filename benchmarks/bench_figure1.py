"""Regenerate Figure 1: SBP strength on the paper's worked example."""

from repro.experiments.figure1 import figure1_counts, render_figure1


def test_figure1(run_once, bench_json):
    (rows, seconds) = bench_json.timed(run_once, figure1_counts)
    print()
    print(render_figure1(rows))
    for r in rows:
        bench_json.add(f"figure1-{r.sbp_kind}", optimal_allowed=r.optimal_allowed)
    bench_json.add("figure1-total", wall_seconds=seconds)
    by_kind = {r.sbp_kind: r for r in rows}
    assert by_kind["none"].optimal_allowed == 48
    assert by_kind["nu"].optimal_allowed == 12
    assert by_kind["ca"].optimal_allowed == 4
    assert by_kind["li"].optimal_allowed == 2
