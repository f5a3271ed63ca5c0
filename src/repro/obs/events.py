"""Event catalogue for the binary solver trace (docs/TRACE_FORMAT.md).

Every record in a trace stream carries a numeric event id from this
module plus a tuple of unsigned integer fields whose meaning is fixed
per event.  Adding a new event is a catalogue addition, not a format
bump: readers skip unknown ids using the record's length prefix, so
old tools keep working on new traces (see docs/observability.md).

Strings never appear on the wire.  Statuses, pipeline stages and
resilience sites are mapped to small integer codes here; the reverse
tables let :mod:`repro.obs.report` render them back.
"""

from __future__ import annotations

from typing import Dict, Tuple

# --- event ids (wire values; append-only, never renumber) -------------

SOLVE_BEGIN = 1
SOLVE_END = 2
CONFLICT = 3
RESTART = 4
DB_REDUCE = 5
# 6 is retired; never reuse it.
K_QUERY_BEGIN = 7
K_QUERY_END = 8
# 9 is retired; never reuse it.
STAGE = 10
# 11-14 are retired; never reuse them.
DEADLINE_EXPIRED = 15
DEGRADED = 16
RACE_BEGIN = 17
RACE_BOUND = 18
RACE_END = 19

EVENT_NAMES: Dict[int, str] = {
    SOLVE_BEGIN: "solve_begin",
    SOLVE_END: "solve_end",
    CONFLICT: "conflict",
    RESTART: "restart",
    DB_REDUCE: "db_reduce",
    K_QUERY_BEGIN: "k_query_begin",
    K_QUERY_END: "k_query_end",
    STAGE: "stage",
    DEADLINE_EXPIRED: "deadline_expired",
    DEGRADED: "degraded",
    RACE_BEGIN: "race_begin",
    RACE_BOUND: "race_bound",
    RACE_END: "race_end",
}

# Field names per event, in payload order.  ``solver`` is the tracer-
# assigned per-solver id (interleaved streams from several solvers
# stay attributable); counter fields on SOLVE_END / K_QUERY_END are the
# per-call run deltas, so summing them reproduces the cumulative
# ``SolverStats`` the solver itself reports.
EVENT_FIELDS: Dict[int, Tuple[str, ...]] = {
    SOLVE_BEGIN: ("solver", "assumptions"),
    SOLVE_END: ("solver", "status", "conflicts", "decisions",
                "propagations", "restarts", "learned", "deleted"),
    CONFLICT: ("solver", "level", "lbd", "propagations"),
    RESTART: ("solver", "conflicts"),
    DB_REDUCE: ("solver", "deleted", "kept"),
    K_QUERY_BEGIN: ("k",),
    K_QUERY_END: ("k", "status", "conflicts", "decisions",
                  "propagations", "restarts"),
    STAGE: ("stage",),
    DEADLINE_EXPIRED: ("where",),
    DEGRADED: ("where", "status"),
    # ``racer`` indexes the portfolio's racer list (emission order);
    # bound kind 0 = upper bound tightened, 1 = lower bound raised.
    RACE_BEGIN: ("racers",),
    RACE_BOUND: ("racer", "kind", "value"),
    RACE_END: ("winner", "status", "cancelled"),
}

# --- string <-> code tables ------------------------------------------

STATUS_CODES: Dict[str, int] = {
    "UNKNOWN": 0,
    "SAT": 1,
    "UNSAT": 2,
    "OPTIMAL": 3,
    "FEASIBLE": 4,
    "ERROR": 5,
}
STATUS_NAMES: Dict[int, str] = {v: k for k, v in STATUS_CODES.items()}

STAGE_CODES: Dict[str, int] = {
    "reduce": 1,
    "encode": 2,
    "sbp": 3,
    "simplify": 4,
    "detect": 5,
    "solve": 6,
    "pipeline": 7,
    # 8 and 10 are retired; never reuse them.
    "query": 9,
    "decide": 11,
    "batch": 12,
}
STAGE_NAMES: Dict[int, str] = {v: k for k, v in STAGE_CODES.items()}

WHERE_CODES: Dict[str, int] = {
    "descent": 1,
    "session": 2,
    # 3 is retired; never reuse it.
    "pipeline": 4,
    "batch": 5,
}
WHERE_NAMES: Dict[int, str] = {v: k for k, v in WHERE_CODES.items()}


def status_code(status: str) -> int:
    """Wire code for a status string (unrecognized -> UNKNOWN)."""
    return STATUS_CODES.get(status, 0)


def stage_code(stage: str) -> int:
    """Wire code for a pipeline stage name (unrecognized -> 0)."""
    return STAGE_CODES.get(stage, 0)


def where_code(where: str) -> int:
    """Wire code for a resilience event site (unrecognized -> 0)."""
    return WHERE_CODES.get(where, 0)
