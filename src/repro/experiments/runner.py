"""The paper's solver-table grid runner and its result records.

The paper's Tables 3/4 report, per (SBP construction, solver,
with/without instance-dependent SBPs): the summed runtime over all 20
benchmarks (timeouts charged at the limit) and the number of instances
solved.  :class:`CellResult` is one such aggregate.  Table 5 reports
the same grid per queens instance.

:func:`run_grid` is the one way to run such a grid: every
(instance, SBP kind, solver, instance-dependent) cell becomes a
budgeted-optimize :class:`~repro.batch.TaskSpec`, the whole grid is one
:func:`~repro.batch.solve_many` call, and the batch records come back
as :class:`RunRecord` in grid order.  ``jobs`` only sets the worker
count; ``jobs=0`` is the batch runner's inline mode, in this process.
The batch runner caches symmetry detection per process, so a grid
detects each (instance, K, SBP kind) once per worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import ChromaticProblem, Pipeline, Result

#: One cell of a solver grid: (instance, SBP kind, solver,
#: instance-dependent SBPs on?).
GridCell = Tuple[str, str, str, bool]


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
) -> DescentRecord:
    """Run one chromatic-number descent and record it for the perf logs.

    Routes through :mod:`repro.api` with the default stages (reduce and
    simplify on, no SBPs): the ``cdcl-incremental`` backend drives the
    descent on one persistent solver over the whole kernel, while
    ``cdcl-scratch`` re-encodes per K query.
    """
    backend = "cdcl-incremental" if incremental else "cdcl-scratch"
    pipeline = Pipeline().solve(backend=backend, strategy=strategy, time_limit=time_limit)
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


def run_grid(
    grid: Sequence[GridCell],
    k: int,
    time_limit: float,
    detection_node_limit: int,
    jobs: int = 0,
    verbose: bool = False,
) -> List[RunRecord]:
    """Solve each cell as a ``k``-color budgeted-optimize task, on
    ``jobs`` workers (``0``: inline); the records come in grid order.

    Kernelization stays off, so the solved formulas are the paper's
    encodings; clause simplification (model-preserving) runs, as in the
    paper's Chaff-lineage solvers.  A record reports solver time, like
    the paper (detection is Table 2's); a hard-killed worker has no
    stage trace, so its wall clock is charged instead
    (:meth:`CellResult.add` clamps it at the limit).
    """
    # Imported on first use: ``repro.experiments.instances`` is imported
    # for its registry alone (batch manifests, benchmark inputs), which
    # need none of the batch runner.
    from ..batch import GraphSpec, TaskSpec, solve_many

    tasks = [
        TaskSpec(
            graph=GraphSpec(instance=name),
            name=name,
            kind="budgeted-optimize",
            max_colors=k,
            backend=solver,
            sbp_kind=sbp_kind,
            instance_dependent=instance_dependent,
            detection_node_limit=detection_node_limit,
            time_limit=time_limit,
            reduce=False,
        )
        for (name, sbp_kind, solver, instance_dependent) in grid
    ]
    records: List[RunRecord] = []

    def collect(record: Dict) -> None:
        name, sbp_kind, solver, instance_dependent = grid[record["index"]]
        seconds = record.get("solve_seconds")
        if seconds is None:
            seconds = record.get("seconds") or 0.0
        run = RunRecord(
            instance=name,
            solver=solver,
            sbp_kind=sbp_kind,
            instance_dependent=instance_dependent,
            k=k,
            status=str(record["status"]),
            num_colors=record["num_colors"],
            seconds=float(seconds),
            solved=record.get("outcome") == "ok",
        )
        records.append(run)
        if verbose:
            print(
                f"    {name:12s} {sbp_kind:6s} {solver:8s} "
                f"i-d={instance_dependent!s:5s} {run.status:8s} "
                f"colors={run.num_colors} {run.seconds:7.2f}s",
                flush=True,
            )

    solve_many(tasks, jobs=jobs, on_record=collect)
    return records


def format_seconds(seconds: float) -> str:
    """Compact runtime rendering in the paper's style (K = 1000 s)."""
    if seconds >= 1000:
        return f"{seconds / 1000:.1f}K"
    if seconds >= 100:
        return f"{seconds:.0f}"
    return f"{seconds:.1f}"
