"""Trace analysis: per-phase timing / conflict-rate profiles.

Turns a decoded :class:`~repro.obs.trace.TraceLog` into either a
JSON-able profile dict (the ``--json`` output, intended as input for
the future layout-tuning loop) or a human-readable text report.

A *phase* is one K query of the descent: the span between a
``k_query_begin`` and its matching ``k_query_end``.  The end record
carries the query's run-delta counters straight from the solver, so
phase conflict/propagation counts are exact (they sum to the solver's
own cumulative ``SolverStats``, which the test suite pins); phase wall
time is the sum of record timestamp deltas inside the span.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from . import events as ev
from .trace import TraceLog, TraceRecord


def _status_name(code: int) -> str:
    return ev.STATUS_NAMES.get(code, f"status#{code}")


def _named_fields(record: TraceRecord) -> Dict[str, int]:
    names = ev.EVENT_FIELDS.get(record.event, ())
    return dict(zip(names, record.fields))


def decode_record(record: TraceRecord) -> Dict[str, Any]:
    """One record as a JSON-able dict (the ``dump`` subcommand's unit)."""
    out: Dict[str, Any] = {
        "event": ev.EVENT_NAMES.get(record.event, f"event#{record.event}"),
        "dt_us": record.dt_us,
    }
    if record.event in ev.EVENT_FIELDS:
        fields = _named_fields(record)
        if "status" in fields:
            fields["status"] = _status_name(int(fields["status"]))  # type: ignore[assignment]
        if record.event == ev.STAGE:
            fields["stage"] = ev.STAGE_NAMES.get(  # type: ignore[assignment]
                int(fields.get("stage", 0)), "other")
        if record.event in (ev.DEADLINE_EXPIRED, ev.DEGRADED):
            fields["where"] = ev.WHERE_NAMES.get(  # type: ignore[assignment]
                int(fields.get("where", 0)), "other")
        # Optional counts travel shifted by one: 0 means "none".
        for name in ("colors", "winner"):
            if name in fields:
                wire = int(fields[name])
                fields[name] = None if wire == 0 else wire - 1  # type: ignore[assignment]
        out["fields"] = fields
    else:
        out["payload_bytes"] = len(record.payload)
    return out


def build_profile(log: TraceLog) -> Dict[str, Any]:
    """Aggregate a trace into the per-phase profile dict."""
    event_counts: Dict[str, int] = {}
    phases: List[Dict[str, Any]] = []
    open_phases: List[Tuple[Dict[str, Any], int]] = []  # (phase, wall_us)
    solve = {"calls": 0, "conflicts": 0, "decisions": 0,
             "propagations": 0, "restarts": 0, "learned": 0, "deleted": 0}
    gc = {"sweeps": 0, "clauses": 0, "learned": 0, "watchers": 0}
    reduce_db = {"sweeps": 0, "deleted": 0}
    pool = {"pools": 0, "components": 0}
    resilience = {"deadline_expired": 0, "degraded": 0}
    totals = {"conflicts": 0, "decisions": 0, "propagations": 0,
              "restarts": 0, "wall_us": 0}

    for record in log.records:
        name = ev.EVENT_NAMES.get(record.event, f"event#{record.event}")
        event_counts[name] = event_counts.get(name, 0) + 1
        totals["wall_us"] += record.dt_us
        # Accumulate in-span wall time for every open phase (phases can
        # nest only via interleaved solvers; attribute to all of them).
        open_phases = [(p, wall + record.dt_us) for p, wall in open_phases]

        if record.event == ev.K_QUERY_BEGIN:
            fields = _named_fields(record)
            phase: Dict[str, Any] = {
                "k": fields.get("k", 0),
                "mode": "permanent" if fields.get("permanent") else "assumption",
            }
            open_phases.append((phase, 0))
        elif record.event == ev.K_QUERY_END:
            fields = _named_fields(record)
            k = fields.get("k", 0)
            match: Optional[Tuple[Dict[str, Any], int]] = None
            for entry in reversed(open_phases):
                if entry[0]["k"] == k:
                    match = entry
                    break
            if match is None:
                match = ({"k": k, "mode": "assumption"}, record.dt_us)
            else:
                open_phases.remove(match)
            phase, wall_us = match
            wall_s = wall_us / 1e6
            conflicts = int(fields.get("conflicts", 0))
            phase.update({
                "status": _status_name(int(fields.get("status", 0))),
                "conflicts": conflicts,
                "decisions": int(fields.get("decisions", 0)),
                "propagations": int(fields.get("propagations", 0)),
                "restarts": int(fields.get("restarts", 0)),
                "wall_us": wall_us,
                "conflicts_per_sec":
                    round(conflicts / wall_s, 1) if wall_s > 0 else 0.0,
            })
            phases.append(phase)
            for key in ("conflicts", "decisions", "propagations", "restarts"):
                totals[key] += int(phase[key])
        elif record.event == ev.SOLVE_END:
            fields = _named_fields(record)
            solve["calls"] += 1
            for key in ("conflicts", "decisions", "propagations",
                        "restarts", "learned", "deleted"):
                solve[key] += int(fields.get(key, 0))
        elif record.event == ev.GC_SWEEP:
            fields = _named_fields(record)
            gc["sweeps"] += 1
            for key in ("clauses", "learned", "watchers"):
                gc[key] += int(fields.get(key, 0))
        elif record.event == ev.DB_REDUCE:
            fields = _named_fields(record)
            reduce_db["sweeps"] += 1
            reduce_db["deleted"] += int(fields.get("deleted", 0))
        elif record.event == ev.POOL_BEGIN:
            fields = _named_fields(record)
            pool["pools"] += 1
            pool["components"] += int(fields.get("components", 0))
        elif record.event == ev.DEADLINE_EXPIRED:
            resilience["deadline_expired"] += 1
        elif record.event == ev.DEGRADED:
            resilience["degraded"] += 1

    return {
        "version": log.version,
        "records": len(log.records),
        "truncated_bytes": log.truncated_bytes,
        "events": dict(sorted(event_counts.items())),
        "phases": phases,
        "totals": totals,
        "solve": solve,
        "gc": gc,
        "db_reduce": reduce_db,
        "pool": pool,
        "resilience": resilience,
    }


def render_report(profile: Dict[str, Any]) -> str:
    """The profile as an aligned, human-readable text report."""
    lines: List[str] = []
    torn = (f", {profile['truncated_bytes']} byte(s) torn tail dropped"
            if profile["truncated_bytes"] else "")
    lines.append(f"trace: {profile['records']} records, "
                 f"format v{profile['version']}{torn}")
    lines.append("")

    phases = profile["phases"]
    if phases:
        lines.append(f"{'phase':16s} {'status':8s} {'conflicts':>9s} "
                     f"{'decisions':>9s} {'propagations':>12s} "
                     f"{'restarts':>8s} {'wall':>9s} {'confl/s':>9s}")
        for phase in phases:
            label = f"K={phase['k']} ({phase['mode'][:4]})"
            lines.append(
                f"{label:16s} {phase['status']:8s} {phase['conflicts']:>9d} "
                f"{phase['decisions']:>9d} {phase['propagations']:>12d} "
                f"{phase['restarts']:>8d} {phase['wall_us'] / 1e6:>8.3f}s "
                f"{phase['conflicts_per_sec']:>9.1f}")
        totals = profile["totals"]
        lines.append(
            f"{'total':16s} {'':8s} {totals['conflicts']:>9d} "
            f"{totals['decisions']:>9d} {totals['propagations']:>12d} "
            f"{totals['restarts']:>8d} {totals['wall_us'] / 1e6:>8.3f}s")
        lines.append("")
    else:
        lines.append("(no K-query phases in this trace)")
        lines.append("")

    solve = profile["solve"]
    lines.append(f"solver: {solve['calls']} solve call(s), "
                 f"{solve['conflicts']} conflicts, "
                 f"{solve['propagations']} propagations, "
                 f"{solve['learned']} learned, {solve['deleted']} deleted")
    reduce_db = profile["db_reduce"]
    gc = profile["gc"]
    lines.append(f"clause GC: {reduce_db['sweeps']} db-reduce sweep(s) "
                 f"({reduce_db['deleted']} deleted), {gc['sweeps']} "
                 f"level-0 sweep(s) ({gc['clauses']} clauses, "
                 f"{gc['learned']} learned, {gc['watchers']} watchers)")
    pool = profile["pool"]
    if pool["pools"]:
        lines.append(f"pool: {pool['pools']} pool run(s) over "
                     f"{pool['components']} component(s)")
    resilience = profile["resilience"]
    lines.append(f"resilience: deadline_expired={resilience['deadline_expired']} "
                 f"degraded={resilience['degraded']}")
    return "\n".join(lines)
