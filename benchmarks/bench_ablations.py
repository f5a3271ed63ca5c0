"""Ablation benches: support cap, search strategy, formula growth."""

from repro.experiments.ablations import (
    ablate_formula_growth,
    ablate_strategy,
    ablate_support_cap,
)


def test_support_cap(run_once, bench_json):
    rows = run_once(
        ablate_support_cap,
        instance_name="queen5_5", k=6, caps=(4, 64), time_limit=20.0,
    )
    print()
    for r in rows:
        print(f"  cap={r.cap}: +{r.clauses_added} clauses, {r.seconds:.2f}s, {r.status}")
        bench_json.add(f"queen5_5-cap{r.cap}", k=6, status=r.status,
                       clauses_added=r.clauses_added,
                       wall_seconds=round(r.seconds, 4))
    assert rows[0].clauses_added <= rows[1].clauses_added
    assert all(r.status in ("OPTIMAL", "SAT") for r in rows)


def test_strategy(run_once, bench_json):
    rows = run_once(
        ablate_strategy, instance_name="queen5_5", k=6, time_limit=20.0,
    )
    print()
    for r in rows:
        print(f"  {r.strategy}: {r.seconds:.2f}s {r.status} value={r.value}")
        bench_json.add(f"queen5_5-{r.strategy}", k=6, status=r.status,
                       wall_seconds=round(r.seconds, 4))
    values = {r.value for r in rows if r.status == "OPTIMAL"}
    assert len(values) <= 1  # strategies agree on the optimum


def test_formula_growth(run_once, bench_scale, bench_json):
    rows = run_once(ablate_formula_growth, bench_scale)
    print()
    for r in rows:
        print(f"  {r.sbp_kind:6s} vars={r.num_vars} clauses={r.num_clauses} "
              f"pb={r.num_pb} growth={r.growth_vs_none:.2f}x")
        bench_json.add(f"growth-{r.sbp_kind}", num_vars=r.num_vars,
                       num_clauses=r.num_clauses,
                       growth_vs_none=round(r.growth_vs_none, 3))
    by_kind = {r.sbp_kind: r for r in rows}
    # Section 3.3: LI roughly doubles the formula; NU/SC are almost free.
    assert by_kind["li"].growth_vs_none > 1.5
    assert by_kind["nu"].growth_vs_none < 1.05
    assert by_kind["sc"].growth_vs_none < 1.05
