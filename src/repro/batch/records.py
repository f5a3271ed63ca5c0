"""The batch JSONL record schema: api Results as plain JSON dicts.

Every task a batch runs produces exactly one record — whatever backend
ultimately answered it — with the structured :class:`~repro.api.Result`
fields flattened into JSON-friendly shapes: the answer (status, colors),
the solver counters (conflicts, propagations, solvers_created), the
K-query trace, per-stage wall seconds, and the full
:class:`~repro.api.Provenance` of the winning run.  The runner adds the
batch-level envelope on top (task name, manifest index, attempt log,
final outcome); :func:`result_to_record` is only the per-attempt part.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..api.results import Result


def result_to_record(
    result: Result, include_coloring: bool = False
) -> Dict[str, object]:
    """Flatten one :class:`Result` into the JSONL record shape."""
    record: Dict[str, object] = {
        "status": result.status,
        "num_colors": result.num_colors,
        "cancelled": result.cancelled,
        "degraded": result.degraded,
        "queries": [list(q) for q in result.queries],
        "conflicts": result.stats.conflicts,
        "propagations": result.stats.propagations,
        "solvers_created": result.solvers_created,
        "stage_seconds": {
            s.name: round(result.stage_seconds(s.name), 6)
            for s in result.stages
        },
        "solve_seconds": round(result.solve_seconds, 6),
    }
    if include_coloring and result.coloring is not None:
        record["coloring"] = {str(v): c for v, c in sorted(result.coloring.items())}
    if result.provenance is not None:
        prov = result.provenance
        record["provenance"] = {
            "problem": prov.problem,
            "backend": prov.backend,
            "config": _jsonable(prov.config),
        }
    return record


def _jsonable(value: object) -> object:
    """Recursively coerce provenance config values to JSON-native types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def error_record(message: str, seconds: Optional[float] = None) -> Dict[str, object]:
    """The record shape of an attempt that raised (or was killed).

    ``num_colors`` is always present (as None) so consumers can read
    the answer keys without guarding per-record.
    """
    record: Dict[str, object] = {
        "status": "ERROR", "error": message, "num_colors": None,
    }
    if seconds is not None:
        record["seconds"] = round(seconds, 6)
    return record
