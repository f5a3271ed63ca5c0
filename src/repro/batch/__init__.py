"""repro.batch — the parallel fleet runner over :mod:`repro.api`.

Solve a *suite* of problems the way the paper's tables do, but fanned
across a worker pool instead of one-at-a-time::

    from repro.batch import solve_many

    report = solve_many(
        [
            {"graph": "myciel4", "kind": "chromatic"},
            {"graph": {"generator": "queens", "args": [6, 6]}},
        ],
        jobs=4,
        task_timeout=30,
        fallback=["exact-dsatur"],
    )
    for record in report:           # manifest order, always
        print(record["task"], record["status"], record["num_colors"])
    print(report.summary["backend_wins"])

The pieces:

* :class:`TaskSpec` / :class:`GraphSpec` / :func:`load_manifest` — the
  declarative manifest layer (JSON/JSONL in, tasks out);
* :class:`BatchRunner` / :func:`solve_many` — the process pool with
  per-task wall-clock timeouts, backend-fallback chains, retry on
  worker death, deterministic manifest-order results and streaming
  JSONL output;
* :func:`result_to_record` — the Result -> JSONL record schema.

The CLI form is ``python -m repro batch MANIFEST --jobs N``;
``repro.api.solve_many`` re-exports the facade.
"""

from ..api.results import conclusive
from .manifest import (
    GENERATORS,
    GraphSpec,
    Manifest,
    TaskSpec,
    as_task,
    load_manifest,
    load_plugins,
)
from .records import result_to_record
from .runner import BatchReport, BatchRunner, solve_many

__all__ = [
    "BatchReport",
    "BatchRunner",
    "GENERATORS",
    "GraphSpec",
    "Manifest",
    "TaskSpec",
    "as_task",
    "conclusive",
    "load_manifest",
    "load_plugins",
    "result_to_record",
    "solve_many",
]
