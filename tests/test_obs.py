"""The observability layer: trace codec, hooks, metrics, report, CLI.

The contracts asserted here (docs/observability.md,
docs/TRACE_FORMAT.md):

* **byte-exact round trip** — decoding a trace and re-encoding its
  records reproduces the input byte-for-byte (canonical varints, raw
  payload preservation);
* **torn-tail tolerance** — a trace cut mid-record (crashed writer)
  yields every complete record plus an honest ``truncated_bytes``
  count, mirroring the WAL contract of ``repro.resilience.read_wal``;
* **forward compatibility** — unknown event ids are skippable via the
  length prefix, so catalogue growth is not a format bump;
* **exact accounting** — per-phase conflict/propagation totals in the
  rendered profile equal the solver's own cumulative ``SolverStats``
  on a fixed descent;
* **determinism** — deterministic metric snapshots are byte-identical
  across ``--jobs`` levels, and tracing never perturbs the search.
"""

import io
import json
import os

import pytest

from repro.api import (
    BudgetedOptimize,
    ChromaticProblem,
    DecisionProblem,
    Pipeline,
    solve_many,
)
from repro.experiments.instances import get_instance
from repro.graphs.generators import mycielski_graph
from repro.obs import (
    MetricsRegistry,
    Tracer,
    TraceWriter,
    active_tracer,
    build_profile,
    decode_record,
    encode_trace,
    get_registry,
    quantile_from_buckets,
    read_trace,
    render_report,
    scoped_registry,
    tracing,
    write_trace,
)
from repro.obs import events as ev
from repro.obs.__main__ import main as obs_main
from repro.obs.trace import (
    MAGIC,
    TraceError,
    TraceRecord,
    decode_uvarint,
    encode_uvarint,
    pack_fields,
)
from repro.sat.factory import new_solver

TRACE_FORMAT = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                            "TRACE_FORMAT.md")


# --------------------------------------------------------------- varints


@pytest.mark.parametrize("value", [0, 1, 127, 128, 129, 300, 16383, 16384,
                                   2**32, 2**63, 2**64 - 1])
def test_uvarint_roundtrip(value):
    data = encode_uvarint(value)
    decoded, pos = decode_uvarint(data)
    assert decoded == value and pos == len(data)


def test_uvarint_is_minimal():
    assert encode_uvarint(0) == b"\x00"
    assert encode_uvarint(127) == b"\x7f"
    assert encode_uvarint(128) == b"\x80\x01"
    assert encode_uvarint(150) == b"\x96\x01"  # the TRACE_FORMAT.md example


def test_uvarint_rejects_negative_and_truncated():
    with pytest.raises(TraceError):
        encode_uvarint(-1)
    with pytest.raises(TraceError):
        decode_uvarint(b"\x80")  # continuation bit set, no next byte
    with pytest.raises(TraceError):
        decode_uvarint(b"\xff" * 11)  # over the 10-byte cap


# ------------------------------------------------------- trace round trip


def _sample_records():
    return [
        TraceRecord(ev.SOLVE_BEGIN, 0, pack_fields((1, 0))),
        TraceRecord(ev.CONFLICT, 150, pack_fields((1, 4, 2, 37))),
        TraceRecord(ev.SOLVE_END, 12, pack_fields((1, 1, 5, 9, 40, 0, 3, 0))),
        TraceRecord(ev.K_QUERY_END, 3, pack_fields((4, 2, 5, 9, 40, 0))),
    ]


def test_trace_reencode_is_byte_identical():
    wire = encode_trace(_sample_records())
    log = read_trace(wire)
    assert log.truncated_bytes == 0
    assert encode_trace(log.records, log.version) == wire


def test_worked_example_from_trace_format_md():
    record = TraceRecord(ev.CONFLICT, 150, pack_fields((1, 4, 2, 37)))
    assert record.encode() == bytes.fromhex("039601040104022 5".replace(" ", ""))
    assert record.fields == (1, 4, 2, 37)


def test_writer_reader_roundtrip_via_file(tmp_path):
    path = str(tmp_path / "t.trace")
    with TraceWriter(path) as writer:
        writer.emit(ev.SOLVE_BEGIN, (1, 0))
        writer.emit(ev.RESTART, (1, 64))
    log = read_trace(path)
    assert [r.event for r in log.records] == [ev.SOLVE_BEGIN, ev.RESTART]
    assert log.records[1].fields == (1, 64)


def test_torn_tail_is_dropped_and_counted():
    wire = encode_trace(_sample_records())
    whole = read_trace(wire)
    # Chop the stream at every byte offset inside the final record: the
    # reader must never raise, never lose a *complete* record, and must
    # report exactly the bytes it could not decode.
    last_start = len(wire) - len(whole.records[-1].encode())
    for cut in range(last_start + 1, len(wire)):
        log = read_trace(wire[:cut])
        assert len(log.records) == len(whole.records) - 1
        assert log.truncated_bytes == cut - last_start


def test_unknown_event_is_skipped_not_fatal():
    records = [
        TraceRecord(99, 5, b"\xde\xad\xbe\xef"),  # not in the catalogue
        TraceRecord(13, 3, pack_fields((2,))),  # retired (old pool_begin)
        TraceRecord(ev.RESTART, 1, pack_fields((1, 2))),
    ]
    log = read_trace(encode_trace(records))
    assert [r.event for r in log.records] == [99, 13, ev.RESTART]
    decoded = decode_record(log.records[0])
    assert decoded["event"] == "event#99" and decoded["payload_bytes"] == 4
    assert decode_record(log.records[1])["event"] == "event#13"
    # and the re-encode is still byte-exact (opaque payload preserved)
    assert encode_trace(log.records) == encode_trace(records)


def test_bad_magic_and_future_version_raise():
    with pytest.raises(TraceError):
        read_trace(b"NOPE" + b"\x01")
    with pytest.raises(TraceError):
        read_trace(MAGIC + encode_uvarint(99))


def test_a_trace_in_the_old_layout_still_reads():
    """Traces once held ``gc_sweep`` records (id 6, now retired) and a
    ``k_query_begin`` with a second field: both read, and the K phase
    is still counted."""
    records = [
        TraceRecord(ev.K_QUERY_BEGIN, 0, pack_fields((4, 1))),
        TraceRecord(6, 10, pack_fields((1, 120, 3, 240))),
        TraceRecord(ev.K_QUERY_END, 90, pack_fields((4, 2, 5, 9, 40, 0))),
    ]
    log = read_trace(encode_trace(records))
    assert log.truncated_bytes == 0 and len(log.records) == 3
    assert decode_record(log.records[0])["fields"] == {"k": 4}
    assert decode_record(log.records[1])["event"] == "event#6"
    profile = build_profile(log)
    assert [(p["k"], p["status"], p["conflicts"], p["wall_us"])
            for p in profile["phases"]] == [(4, "UNSAT", 5, 100)]
    assert profile["totals"]["conflicts"] == 5
    assert profile["events"]["event#6"] == 1
    assert "K=4" in render_report(profile)


def _documented_events():
    """The event table of docs/TRACE_FORMAT.md: ``(ids, event, fields)``
    cells per row, ``ids`` a range (``11–14`` spans four)."""
    with open(TRACE_FORMAT, encoding="utf-8") as fh:
        section = fh.read().split("## Event catalogue", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0][:1].isdigit():
            continue  # not a row, or the header and its rule
        first, _, last = cells[0].partition("–")
        rows.append((range(int(first), int(last or first) + 1), cells[1], cells[2]))
    return rows


def test_the_documented_event_catalogue_is_the_code():
    live, retired = {}, set()
    for ids, event, fields in _documented_events():
        if event == "*retired*":
            retired.update(ids)
        else:
            (wire,) = ids
            live[wire] = (event.strip("`"),
                          tuple(field.strip() for field in fields.split(",")))
    assert live == {wire: (name, ev.EVENT_FIELDS[wire])
                    for wire, name in ev.EVENT_NAMES.items()}
    assert retired and not retired & set(ev.EVENT_NAMES)
    ids = set(live) | retired
    assert ids == set(range(1, max(ids) + 1))


def test_write_trace_path_form(tmp_path):
    path = str(tmp_path / "w.trace")
    write_trace(path, _sample_records())
    assert read_trace(path).records == _sample_records()


# ---------------------------------------------------------------- metrics


def test_counters_gauges_histograms_and_labels():
    reg = MetricsRegistry()
    reg.inc("solver_conflicts_total", 3)
    reg.inc("solver_solve_total", status="SAT")
    reg.inc("solver_solve_total", status="SAT")
    reg.gauge("batch_queue_depth", 7)
    reg.observe("solver_solve_conflicts", 42)
    snap = reg.snapshot()
    assert snap["counters"]["solver_conflicts_total"] == 3
    assert snap["counters"]['solver_solve_total{status="SAT"}'] == 2
    assert snap["gauges"]["batch_queue_depth"] == 7
    hist = snap["histograms"]["solver_solve_conflicts"]
    assert hist["count"] == 1 and hist["sum"] == 42
    assert sum(hist["buckets"].values()) == 1


def test_label_names_are_sorted_in_the_key():
    reg = MetricsRegistry()
    reg.inc("x_total", b="2", a="1")
    assert list(reg.snapshot()["counters"]) == ['x_total{a="1",b="2"}']


def test_deterministic_snapshot_excludes_seconds():
    reg = MetricsRegistry()
    reg.inc("pipeline_runs_total")
    reg.observe_seconds("pipeline_stage_seconds", 0.25, stage="solve")
    full = reg.snapshot()
    det = reg.snapshot(deterministic_only=True)
    assert "histograms" in full and "histograms" not in det
    assert det["counters"] == {"pipeline_runs_total": 1}


def test_snapshot_json_is_sorted_and_stable():
    reg = MetricsRegistry()
    reg.inc("b_total")
    reg.inc("a_total")
    text = reg.to_json()
    assert text == json.dumps(reg.snapshot(), sort_keys=True, indent=2)
    assert text.index('"a_total"') < text.index('"b_total"')


def test_quantile_from_buckets():
    reg = MetricsRegistry()
    for value in (1, 1, 3, 8, 900):
        reg.observe("k", value)
    hist = reg.snapshot()["histograms"]["k"]
    assert quantile_from_buckets(hist, 0.5) == 5.0   # 3rd of 5 -> (2, 5]
    assert quantile_from_buckets(hist, 0.99) == 1000.0
    assert quantile_from_buckets({"count": 0, "buckets": {}}, 0.5) is None


def test_scoped_registry_stacks_and_restores():
    base = get_registry()
    with scoped_registry() as inner:
        assert get_registry() is inner and inner is not base
        get_registry().inc("scoped_total")
        with scoped_registry() as inner2:
            assert get_registry() is inner2
        assert get_registry() is inner
    assert get_registry() is base
    assert "scoped_total" not in base.snapshot().get("counters", {})


# ----------------------------------------------- hooks and end-to-end


def test_tracing_attaches_via_factory_and_restores():
    assert active_tracer() is None
    sink = io.BytesIO()
    with tracing(sink) as tracer:
        assert active_tracer() is tracer
        s1 = new_solver(num_vars=2)
        s2 = new_solver(num_vars=2)
        assert s1.tracer is tracer and s2.tracer is tracer
        assert (s1.tracer_id, s2.tracer_id) == (1, 2)
    assert active_tracer() is None
    untraced = new_solver(num_vars=2)
    assert untraced.tracer is None


def test_report_totals_match_solver_stats_exactly():
    """The acceptance contract: profile sums == the solver's own stats."""
    sink = io.BytesIO()
    with scoped_registry() as registry, tracing(sink):
        result = (
            Pipeline()
            .solve(backend="cdcl-incremental", strategy="linear",
                   time_limit=120)
            .run(ChromaticProblem(mycielski_graph(3)))
        )
    assert result.status == "OPTIMAL" and result.chromatic_number == 4
    log = read_trace(sink.getvalue())
    assert log.truncated_bytes == 0
    profile = build_profile(log)

    totals = profile["totals"]
    assert totals["conflicts"] == result.stats.conflicts
    assert totals["decisions"] == result.stats.decisions
    assert totals["propagations"] == result.stats.propagations
    assert totals["restarts"] == result.stats.restarts
    # one phase per recorded K query, statuses agree in order
    assert [(p["k"], p["status"]) for p in profile["phases"]] == [
        (k, status) for k, status in result.queries]
    # the metrics registry saw the same counts
    counters = registry.snapshot()["counters"]
    assert counters["solver_conflicts_total"] == result.stats.conflicts
    assert counters["solver_propagations_total"] == result.stats.propagations
    # and the text renderer carries the exact totals
    text = render_report(profile)
    assert f"{result.stats.conflicts} conflicts" in text


def _pb_decision(backend):
    return (Pipeline().reduce(False).solve(backend=backend, time_limit=120),
            DecisionProblem(get_instance("queen5_5").graph(), 4))


def _pb_optimize(backend):
    return (Pipeline().symmetry(sbp_kind="nu+sc")
            .solve(backend=backend, time_limit=120),
            BudgetedOptimize(get_instance("myciel4").graph(), 20))


@pytest.mark.parametrize("backend,build", [
    ("pb-pbs2", _pb_decision),
    ("pb-galena", _pb_decision),
    ("pb-pueblo", _pb_optimize),
], ids=["pb-pbs2", "pb-galena", "pb-pueblo"])
def test_pb_engines_are_traced_and_counted(backend, build):
    """PB engines register at birth like CDCL ones: traced and counted."""
    pipeline, problem = build(backend)
    sink = io.BytesIO()
    with scoped_registry() as registry, tracing(sink):
        result = pipeline.run(problem)
    assert result.status in ("UNSAT", "OPTIMAL")
    assert result.stats.conflicts > 0
    solve = build_profile(read_trace(sink.getvalue()))["solve"]
    assert solve["calls"] >= 1
    for key in ("conflicts", "decisions", "propagations", "restarts"):
        assert solve[key] == getattr(result.stats, key), key
    counters = registry.snapshot()["counters"]
    assert counters["solver_created_total"] == result.solvers_created
    assert counters["solver_conflicts_total"] == result.stats.conflicts


def test_tracing_does_not_perturb_the_search():
    problem = ChromaticProblem(mycielski_graph(3))
    pipeline = Pipeline().solve(backend="cdcl-incremental", time_limit=120)
    baseline = pipeline.run(problem)
    with tracing(io.BytesIO()):
        traced = pipeline.run(problem)
    assert traced.stats.conflicts == baseline.stats.conflicts
    assert traced.stats.propagations == baseline.stats.propagations
    assert traced.queries == baseline.queries


def _portfolio_tier_run():
    result = (
        Pipeline()
        .solve(backend="portfolio", time_limit=120)
        .run(ChromaticProblem(mycielski_graph(4)))
    )
    assert result.status == "OPTIMAL"


def _batch_tier_run():
    report = solve_many([{"graph": "myciel4"}, {"graph": "myciel4"}], jobs=2)
    assert [r["outcome"] for r in report.records] == ["ok", "ok"]


@pytest.mark.parametrize("run", [_portfolio_tier_run, _batch_tier_run],
                         ids=["portfolio", "batch_jobs"])
def test_process_tiers_leave_the_parent_trace_intact(tmp_path, run):
    """Forked workers must not write into the parent's trace file.

    The sink is a real file: a child writes the parent's unflushed
    bytes (header included) through its copy of the buffered writer,
    which a ``BytesIO`` sink would keep private to the child.
    """
    path = str(tmp_path / "run.trace")
    with tracing(path):
        run()
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.count(MAGIC) == 1
    assert read_trace(path).truncated_bytes == 0


def test_deadline_expiry_and_degradation_are_traced():
    sink = io.BytesIO()
    with scoped_registry() as registry, tracing(sink):
        result = (
            Pipeline()
            .solve(backend="cdcl-incremental", strategy="linear",
                   time_limit=1e-9)
            .run(ChromaticProblem(mycielski_graph(4)))
        )
    assert result.status == "FEASIBLE" and result.degraded
    profile = build_profile(read_trace(sink.getvalue()))
    assert profile["resilience"]["deadline_expired"] >= 1
    assert profile["resilience"]["degraded"] >= 1
    counters = registry.snapshot()["counters"]
    assert counters.get("pipeline_degraded_total", 0) >= 1
    assert any(k.startswith("deadline_expired_total") for k in counters)


# ------------------------------------------------------------------- CLI


def _solved_trace(tmp_path):
    path = str(tmp_path / "run.trace")
    with tracing(path):
        (Pipeline()
         .solve(backend="cdcl-incremental", time_limit=120)
         .run(ChromaticProblem(mycielski_graph(3))))
    return path


def test_cli_report_and_dump(tmp_path, capsys):
    path = _solved_trace(tmp_path)
    assert obs_main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "K=" in out

    assert obs_main(["report", path, "--json"]) == 0
    profile = json.loads(capsys.readouterr().out)
    assert profile["totals"]["conflicts"] >= 0 and profile["phases"]

    assert obs_main(["dump", path, "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "more record(s)" in out


def test_cli_error_exits(tmp_path, capsys):
    assert obs_main(["report", str(tmp_path / "missing.trace")]) == 2
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"NOPE\x01")
    assert obs_main(["report", str(bad)]) == 2
    capsys.readouterr()


# ------------------------------------------------------------ batch merge


def _tiny_tasks():
    return [
        {"graph": {"generator": "mycielski", "args": [3]}},
        {"graph": {"generator": "queens", "args": [4, 4]}},
    ]


def test_batch_records_carry_deterministic_metrics():
    inline = list(solve_many(_tiny_tasks(), jobs=0))
    pooled = list(solve_many(_tiny_tasks(), jobs=2))
    # myciel3 needs a real descent; queens(4,4) closes from bounds alone
    # and still reports the pipeline counter.
    counters = inline[0]["metrics"]["counters"]
    assert counters["solver_created_total"] >= 1
    for rec_inline, rec_pooled in zip(inline, pooled):
        assert any(key.startswith("pipeline_runs_total")
                   for key in rec_inline["metrics"]["counters"])
        assert rec_inline["metrics"] == rec_pooled["metrics"], (
            "attempt metrics must be byte-comparable across --jobs levels")
        assert not any(
            "_seconds" in key
            for group in rec_inline["metrics"].values()
            for key in group)
