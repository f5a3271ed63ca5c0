"""Experiment drivers regenerating every table and figure of the paper."""

from .ablations import ablate_formula_growth, ablate_strategy, ablate_support_cap
from .figure1 import figure1_counts, figure1_graph, render_figure1
from .instances import (
    Instance,
    QUEENS_NAMES,
    REGISTRY,
    SCALES,
    ScalePreset,
    all_instances,
    get_instance,
    get_scale,
)
from .report import save_report
from .runner import CellResult, RunRecord, format_seconds, run_grid
from .tables import (
    SBP_ROWS,
    SolverTable,
    render_solver_table,
    render_table1,
    render_table2,
    render_table5,
    solver_table,
    table1,
    table2,
    table3,
    table4,
    table5,
)

__all__ = [
    "CellResult",
    "Instance",
    "QUEENS_NAMES",
    "REGISTRY",
    "RunRecord",
    "SBP_ROWS",
    "SCALES",
    "ScalePreset",
    "SolverTable",
    "ablate_formula_growth",
    "ablate_strategy",
    "ablate_support_cap",
    "all_instances",
    "figure1_counts",
    "figure1_graph",
    "format_seconds",
    "get_instance",
    "get_scale",
    "render_figure1",
    "save_report",
    "render_solver_table",
    "render_table1",
    "render_table2",
    "render_table5",
    "run_grid",
    "solver_table",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
]
