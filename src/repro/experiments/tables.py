"""Reproduction drivers for the paper's Tables 1-5.

Each ``tableN`` function runs the corresponding experiment at a given
scale and returns structured rows; ``render_tableN`` turns them into
the ASCII layout of the paper.  The solver tables (3, 4 and 5) each
build their (instance, SBP kind, solver, instance-dependent) grid and
solve it with one :func:`~repro.experiments.runner.run_grid` call, so
``jobs`` only sets how many batch workers serve the table.  The
benchmark harness under ``benchmarks/`` calls these with the ``bench``
scale; the CLI (``python -m repro.experiments``) exposes every scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..coloring.encoding import encode_coloring
from ..coloring.exact_dsatur import exact_chromatic_number
from ..sbp.instance_independent import apply_sbp
from ..symmetry.detect import detect_symmetries
from .instances import QUEENS_NAMES, ScalePreset
from .runner import CellResult, RunRecord, format_seconds, run_grid

SBP_ROWS = ("none", "nu", "ca", "li", "sc", "nu+sc")
SBP_LABEL = {
    "none": "no SBPs", "nu": "NU", "ca": "CA",
    "li": "LI", "sc": "SC", "nu+sc": "NU+SC",
}


# ------------------------------------------------------------------ Table 1
@dataclass
class Table1Row:
    name: str
    num_vertices: int
    num_edges: int
    paper_chi: Optional[int]  # None = "> 20"
    measured_chi: Optional[int]  # None = not proved within budget
    measured_optimal: bool


def table1(scale: ScalePreset, per_instance_budget: Optional[float] = None) -> List[Table1Row]:
    """Benchmark statistics (paper Table 1), with measured chromatic numbers.

    The chromatic number is measured with the DSATUR branch-and-bound
    baseline under a small budget; instances whose chromatic number
    exceeds ``scale.k_primary`` are reported as such (the paper's
    "> 20" entries, scaled).
    """
    budget = per_instance_budget if per_instance_budget is not None else scale.time_limit
    rows: List[Table1Row] = []
    for instance in scale.instances():
        graph = instance.graph()
        result = exact_chromatic_number(graph, time_limit=budget)
        rows.append(
            Table1Row(
                name=instance.name,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                paper_chi=instance.chromatic,
                measured_chi=result.chromatic_number,
                measured_optimal=result.optimal,
            )
        )
    return rows


def render_table1(rows: Sequence[Table1Row], k_limit: int) -> str:
    """ASCII rendering in the paper's Table 1 layout."""
    lines = [f"{'Instance':14s} {'#V':>5s} {'#E':>6s} {'K(paper)':>9s} {'K(measured)':>12s}"]
    for r in rows:
        paper = str(r.paper_chi) if r.paper_chi is not None else ">20"
        if r.measured_chi is None:
            measured = "?"
        elif not r.measured_optimal:
            measured = f"<={r.measured_chi}"
        elif r.measured_chi > k_limit:
            measured = f">{k_limit} ({r.measured_chi})"
        else:
            measured = str(r.measured_chi)
        lines.append(
            f"{r.name:14s} {r.num_vertices:5d} {r.num_edges:6d} {paper:>9s} {measured:>12s}"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------ Table 2
@dataclass
class Table2Row:
    sbp_kind: str
    num_vars: int = 0
    num_clauses: int = 0
    num_pb: int = 0
    order: float = 0.0  # total symmetry count (sum over instances)
    num_generators: int = 0
    detection_seconds: float = 0.0
    complete: bool = True


def table2(scale: ScalePreset, verbose: bool = False) -> List[Table2Row]:
    """Formula sizes + symmetry statistics per SBP construction (Table 2).

    As in the paper, numbers are totals over the instance set at
    ``K = scale.k_primary``: formula statistics, symmetry group order
    (``#S``), generator count (``#G``) and detection runtime.
    """
    rows: List[Table2Row] = []
    for kind in SBP_ROWS:
        row = Table2Row(sbp_kind=kind)
        for instance in scale.instances():
            graph = instance.graph()
            encoding = apply_sbp(encode_coloring(graph, scale.k_primary), kind)
            stats = encoding.formula.stats()
            row.num_vars += stats.num_vars
            row.num_clauses += stats.num_clauses
            row.num_pb += stats.num_pb
            report = detect_symmetries(
                encoding.formula, node_limit=scale.detection_node_limit
            )
            row.order += float(report.order)
            row.num_generators += report.num_generators
            row.detection_seconds += report.detection_seconds
            row.complete = row.complete and report.complete
            if verbose:
                print(
                    f"    {kind:6s} {instance.name:12s} #S={report.order:.3g} "
                    f"#G={report.num_generators} t={report.detection_seconds:.2f}s",
                    flush=True,
                )
        rows.append(row)
    return rows


def render_table2(rows: Sequence[Table2Row]) -> str:
    """ASCII rendering in the paper's Table 2 layout."""
    lines = [
        f"{'SBP':8s} {'#V':>8s} {'#CL':>9s} {'#PB':>7s} {'#S':>10s} {'#G':>6s} {'Time':>8s}"
    ]
    for r in rows:
        flag = "" if r.complete else "*"
        lines.append(
            f"{SBP_LABEL[r.sbp_kind]:8s} {r.num_vars:8d} {r.num_clauses:9d} "
            f"{r.num_pb:7d} {r.order:10.3g} {r.num_generators:6d} "
            f"{r.detection_seconds:7.1f}s{flag}"
        )
    if any(not r.complete for r in rows):
        lines.append("* search budget hit; counts are lower bounds")
    return "\n".join(lines)


# -------------------------------------------------------------- Tables 3, 4
@dataclass
class SolverTable:
    """One of the paper's Tables 3/4: cells[(sbp, solver, inst_dep)]."""

    k: int
    scale_name: str
    cells: Dict[Tuple[str, str, bool], CellResult] = field(default_factory=dict)


def solver_table(
    scale: ScalePreset,
    k: int,
    sbp_rows: Sequence[str] = SBP_ROWS,
    verbose: bool = False,
    jobs: int = 0,
) -> SolverTable:
    """Run the full (SBP row) x (solver) x (inst-dep?) grid at color budget k.

    The whole table is one :func:`~repro.experiments.runner.run_grid`
    call; ``jobs`` sets how many batch workers serve it.
    """
    grid = [
        (name, sbp, solver, inst_dep)
        for sbp in sbp_rows
        for solver in scale.solvers
        for inst_dep in (False, True)
        for name in scale.instance_names
    ]
    table = SolverTable(k=k, scale_name=scale.name)
    records = run_grid(
        grid, k, scale.time_limit, scale.detection_node_limit,
        jobs=jobs, verbose=verbose,
    )
    for record in records:
        key = (record.sbp_kind, record.solver, record.instance_dependent)
        cell = table.cells.get(key)
        if cell is None:
            cell = table.cells[key] = CellResult(
                solver=record.solver, sbp_kind=record.sbp_kind,
                instance_dependent=record.instance_dependent,
            )
        cell.add(record, scale.time_limit)
    return table


def table3(scale: ScalePreset, verbose: bool = False, jobs: int = 0) -> SolverTable:
    """Paper Table 3: the K=20 analog (``scale.k_primary``)."""
    return solver_table(scale, scale.k_primary, verbose=verbose, jobs=jobs)


def table4(scale: ScalePreset, verbose: bool = False, jobs: int = 0) -> SolverTable:
    """Paper Table 4: the K=30 analog (``scale.k_secondary``)."""
    return solver_table(scale, scale.k_secondary, verbose=verbose, jobs=jobs)


def render_solver_table(table: SolverTable, solvers: Sequence[str]) -> str:
    """ASCII rendering in the paper's Table 3/4 layout."""
    header = f"{'SBP':8s}"
    for solver in solvers:
        header += f" | {solver + ' orig':>12s} | {solver + ' w/i-d':>12s}"
    lines = [f"[scale={table.scale_name}, K={table.k}]", header]
    sbps = sorted({key[0] for key in table.cells}, key=SBP_ROWS.index)
    for sbp in sbps:
        line = f"{SBP_LABEL[sbp]:8s}"
        for solver in solvers:
            for inst_dep in (False, True):
                cell = table.cells.get((sbp, solver, inst_dep))
                if cell is None:
                    line += f" | {'-':>12s}"
                    continue
                text = f"{format_seconds(cell.total_seconds)}/{cell.num_solved}"
                line += f" | {text:>12s}"
        lines.append(line)
    lines.append("cells: total-seconds / #solved (paper format: Tm. / #S)")
    return "\n".join(lines)


# ------------------------------------------------------------------ Table 5
def table5(scale: ScalePreset, verbose: bool = False, jobs: int = 0) -> List[RunRecord]:
    """Appendix Table 5: per-instance queens results, every construction.

    The (instance, sbp, solver, inst-dep) grid is one
    :func:`~repro.experiments.runner.run_grid` call; the records come
    back in grid order whatever ``jobs`` is.
    """
    names = [n for n in QUEENS_NAMES if n in scale.instance_names] or list(QUEENS_NAMES[:2])
    grid = [
        (name, sbp, solver, inst_dep)
        for name in names
        for sbp in SBP_ROWS
        for solver in scale.solvers
        for inst_dep in (False, True)
    ]
    return run_grid(
        grid, scale.k_primary, scale.time_limit, scale.detection_node_limit,
        jobs=jobs, verbose=verbose,
    )


def render_table5(records: Sequence, time_limit: float) -> str:
    """ASCII rendering in the paper's Table 5 (Appendix) layout."""
    lines = [f"{'Instance':11s} {'SBP':8s} " + " ".join(
        f"{'[' + s + ' o/w]':>17s}" for s in ("pbs2", "galena", "pueblo", "cplex-bb"))]
    by_key: Dict[Tuple[str, str], Dict[Tuple[str, bool], object]] = {}
    solvers_seen = []
    for r in records:
        by_key.setdefault((r.instance, r.sbp_kind), {})[(r.solver, r.instance_dependent)] = r
        if r.solver not in solvers_seen:
            solvers_seen.append(r.solver)
    for (instance, sbp), cells in by_key.items():
        line = f"{instance:11s} {SBP_LABEL[sbp]:8s} "
        for solver in solvers_seen:
            pair = []
            for inst_dep in (False, True):
                r = cells.get((solver, inst_dep))
                if r is None:
                    pair.append("-")
                elif r.solved:
                    pair.append(format_seconds(r.seconds))
                else:
                    pair.append("T/O")
            line += f"{pair[0] + '/' + pair[1]:>18s}"
        lines.append(line)
    lines.append(f"entries: orig/with-inst-dep; T/O = timeout at {time_limit:.0f}s")
    return "\n".join(lines)
