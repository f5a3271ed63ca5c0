"""Timeout-controlled experiment runner and result records.

The paper's Tables 3/4 report, per (SBP construction, solver,
with/without instance-dependent SBPs): the summed runtime over all 20
benchmarks (timeouts charged at the limit) and the number of instances
solved.  :class:`CellResult` is one such aggregate; ``run_cell``
produces it.

``run_cell(..., jobs=N)`` fans the cell's instances across the
:mod:`repro.batch` worker pool (one slow instance no longer stalls the
whole table); ``jobs=0`` (the default) keeps the historical sequential
in-process loop, which shares the symmetry-detection cache across
cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import BudgetedOptimize, ChromaticProblem, Pipeline, Result
from .instances import Instance

# Symmetry detection depends only on (instance, K, SBP kind) — the
# encodings are deterministic — so results are shared across solvers and
# across the with/without-instance-dependent-SBP columns of a table.
DETECTION_CACHE: Dict = {}


@dataclass
class RunRecord:
    """One (instance, configuration) solve."""

    instance: str
    solver: str
    sbp_kind: str
    instance_dependent: bool
    k: int
    status: str
    num_colors: Optional[int]
    seconds: float
    solved: bool


@dataclass
class CellResult:
    """Aggregate over the instance set for one table cell."""

    solver: str
    sbp_kind: str
    instance_dependent: bool
    total_seconds: float = 0.0
    num_solved: int = 0
    records: List[RunRecord] = field(default_factory=list)

    def add(self, record: RunRecord, time_limit: float) -> None:
        self.records.append(record)
        self.total_seconds += min(record.seconds, time_limit) if not record.solved else record.seconds
        if record.solved:
            self.num_solved += 1


@dataclass
class DescentRecord:
    """One chromatic-number descent (the repeated-SAT K-search).

    The machine-readable shape the benchmark JSON emitter consumes:
    which K values were queried, how the solver(s) behaved, and whether
    the descent ran on one persistent solver or from scratch per query.
    """

    instance: str
    strategy: str
    incremental: bool
    status: str
    chromatic_number: Optional[int]
    sat_calls: int
    k_queries: List[Tuple[int, str]]
    conflicts: int
    propagations: int
    solvers_created: int
    seconds: float

    def as_json(self) -> Dict:
        """Plain-dict form for the benchmark JSON reports."""
        return {
            "instance": self.instance,
            "strategy": self.strategy,
            "incremental": self.incremental,
            "status": self.status,
            "chromatic_number": self.chromatic_number,
            "k_queries": [list(q) for q in self.k_queries],
            "sat_calls": self.sat_calls,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "solvers_created": self.solvers_created,
            "wall_seconds": self.seconds,
        }


def run_descent(
    name: str,
    graph,
    strategy: str = "linear",
    incremental: bool = True,
    time_limit: Optional[float] = None,
    sbp_kind: str = "none",
    preprocess: bool = True,
    reduce: bool = True,
) -> DescentRecord:
    """Run one chromatic-number descent and record it for the perf logs.

    Routes through :mod:`repro.api`: the ``cdcl-incremental`` backend
    drives the descent on one persistent solver over the whole kernel,
    while ``cdcl-scratch`` re-encodes per K query.
    """
    backend = "cdcl-incremental" if incremental else "cdcl-scratch"
    pipeline = (
        Pipeline()
        .reduce(reduce)
        .symmetry(sbp_kind=sbp_kind)
        .simplify(preprocess)
        .solve(backend=backend, strategy=strategy, time_limit=time_limit)
    )
    result: Result = pipeline.run(ChromaticProblem(graph))
    return DescentRecord(
        instance=name,
        strategy=strategy,
        incremental=incremental,
        status=result.status,
        chromatic_number=result.chromatic_number,
        sat_calls=len(result.queries),
        k_queries=list(result.queries),
        conflicts=result.stats.conflicts,
        propagations=result.stats.propagations,
        solvers_created=result.solvers_created,
        seconds=result.total_seconds,
    )


def run_one(
    instance: Instance,
    k: int,
    solver: str,
    sbp_kind: str,
    instance_dependent: bool,
    time_limit: float,
    detection_node_limit: int,
    preprocess: bool = True,
    reduce: bool = False,
) -> RunRecord:
    """Solve one instance under one configuration.

    ``preprocess``/``reduce`` toggle the simplification pipeline; the
    tables keep kernelization off by default so the measured formulas
    match the paper's encodings, while clause simplification (which is
    model-preserving) runs like the paper's Chaff-lineage solvers do.
    """
    graph = instance.graph()
    start = time.monotonic()
    try:
        pipeline = (
            Pipeline()
            .reduce(reduce)
            .symmetry(
                sbp_kind=sbp_kind,
                instance_dependent=instance_dependent,
                detection_node_limit=detection_node_limit,
            )
            .simplify(preprocess)
            .solve(backend=solver, time_limit=time_limit)
        )
        result: Result = pipeline.run(
            BudgetedOptimize(graph, k), detection_cache=DETECTION_CACHE
        )
        status = result.status
        num_colors = result.num_colors
        solved = result.solved
        # Like the paper, report solver runtime; symmetry detection is
        # accounted separately (Table 2) and amortized by the cache.
        seconds = result.solve_seconds
    except MemoryError:
        status, num_colors, solved = "ERROR", None, False
        seconds = time.monotonic() - start
    return RunRecord(
        instance=instance.name,
        solver=solver,
        sbp_kind=sbp_kind,
        instance_dependent=instance_dependent,
        k=k,
        status=status,
        num_colors=num_colors,
        seconds=seconds,
        solved=solved,
    )


def cell_tasks(
    instances: Sequence[Instance],
    k: int,
    solver: str,
    sbp_kind: str,
    instance_dependent: bool,
    time_limit: float,
    detection_node_limit: int,
    preprocess: bool = True,
    reduce: bool = False,
) -> List:
    """The batch TaskSpecs equivalent to one table cell's run_one loop."""
    from ..batch.manifest import GraphSpec, TaskSpec

    return [
        TaskSpec(
            graph=GraphSpec(instance=instance.name),
            name=instance.name,
            kind="budgeted-optimize",
            max_colors=k,
            backend=solver,
            sbp_kind=sbp_kind,
            instance_dependent=instance_dependent,
            detection_node_limit=detection_node_limit,
            time_limit=time_limit,
            reduce=reduce,
            simplify=preprocess,
        )
        for instance in instances
    ]


def record_to_run_record(
    record: Dict, k: int, solver: str, sbp_kind: str, instance_dependent: bool
) -> RunRecord:
    """Map one batch JSONL record back to the tables' RunRecord shape.

    Like ``run_one``, the reported time is solver time when the solve
    stage ran; a hard-killed worker has no stage trace, so its full
    wall clock is charged instead (the caller clamps at the limit).
    """
    seconds = record.get("solve_seconds")
    if seconds is None:
        seconds = record.get("seconds") or 0.0
    return RunRecord(
        instance=str(record.get("task")),
        solver=solver,
        sbp_kind=sbp_kind,
        instance_dependent=instance_dependent,
        k=k,
        status=str(record.get("status")),
        num_colors=record.get("num_colors"),
        seconds=float(seconds),
        solved=record.get("outcome") == "ok",
    )


def run_cell(
    instances: Sequence[Instance],
    k: int,
    solver: str,
    sbp_kind: str,
    instance_dependent: bool,
    time_limit: float,
    detection_node_limit: int,
    verbose: bool = False,
    preprocess: bool = True,
    reduce: bool = False,
    jobs: int = 0,
    task_timeout: Optional[float] = None,
) -> CellResult:
    """Aggregate one table cell over the instance set.

    ``jobs >= 1`` runs the cell through the :mod:`repro.batch` pool
    (records come back in instance order, so the aggregate is
    deterministic); ``jobs=0`` keeps the sequential in-process loop.
    Both paths bound the *solver* with ``time_limit``, like the paper;
    ``task_timeout`` optionally adds a hard wall-clock kill per task
    (which also charges encode/detect time, so it is off by default to
    keep parallel tables comparable with sequential ones).
    """
    cell = CellResult(solver=solver, sbp_kind=sbp_kind, instance_dependent=instance_dependent)

    def report(record: RunRecord) -> None:
        cell.add(record, time_limit)
        if verbose:
            print(
                f"    {record.instance:12s} {record.status:8s} "
                f"colors={record.num_colors} {record.seconds:7.2f}s",
                flush=True,
            )

    if jobs:
        from ..batch import solve_many

        tasks = cell_tasks(
            instances, k, solver, sbp_kind, instance_dependent,
            time_limit, detection_node_limit,
            preprocess=preprocess, reduce=reduce,
        )
        batch = solve_many(
            tasks, jobs=jobs, task_timeout=task_timeout,
            on_record=lambda rec: report(
                record_to_run_record(rec, k, solver, sbp_kind, instance_dependent)
            ),
        )
        assert len(batch) == len(instances)
        return cell

    for instance in instances:
        report(run_one(
            instance, k, solver, sbp_kind, instance_dependent,
            time_limit, detection_node_limit,
            preprocess=preprocess, reduce=reduce,
        ))
    return cell


def format_seconds(seconds: float) -> str:
    """Compact runtime rendering in the paper's style (K = 1000 s)."""
    if seconds >= 1000:
        return f"{seconds / 1000:.1f}K"
    if seconds >= 100:
        return f"{seconds:.0f}"
    return f"{seconds:.1f}"
