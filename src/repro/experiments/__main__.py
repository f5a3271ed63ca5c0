"""CLI for regenerating the paper's tables and figure.

Usage::

    python -m repro.experiments table1 [--scale tiny|small|paper]
    python -m repro.experiments table2 [--scale ...]
    python -m repro.experiments table3 [--scale ...]
    python -m repro.experiments table4 [--scale ...]
    python -m repro.experiments table5 [--scale ...]
    python -m repro.experiments figure1
    python -m repro.experiments all [--scale ...]
"""

from __future__ import annotations

import argparse
import sys

from .figure1 import figure1_counts, render_figure1
from .instances import get_scale
from .report import save_report
from .tables import (
    render_solver_table,
    render_table1,
    render_table2,
    render_table5,
    table1,
    table2,
    table3,
    table4,
    table5,
)

EXPERIMENTS = ("table1", "table2", "table3", "table4", "table5", "figure1", "all")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figure.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--scale", default="tiny", help="bench | tiny | small | paper")
    parser.add_argument("--jobs", "-j", type=int, default=0,
                        help="solve each of Tables 3-5 as one repro.batch "
                             "grid on N worker processes (0 = inline in "
                             "this process, through the batch runner)")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="also write <experiment>.json/.md artifacts to DIR")
    args = parser.parse_args(argv)
    scale = get_scale(args.scale)
    want = EXPERIMENTS[:-1] if args.experiment == "all" else (args.experiment,)
    metadata = {"scale": scale.name, "k_primary": scale.k_primary,
                "k_secondary": scale.k_secondary, "time_limit": scale.time_limit}

    def emit(name: str, rows, rendered: str) -> None:
        print(rendered)
        print()
        if args.save:
            save_report(args.save, f"{name}_{scale.name}", rows, rendered, metadata)

    if "table1" in want:
        print(f"== Table 1 (scale={scale.name}) ==")
        rows = table1(scale)
        emit("table1", rows, render_table1(rows, scale.k_primary))
    if "table2" in want:
        print(f"== Table 2 (scale={scale.name}, K={scale.k_primary}) ==")
        rows = table2(scale, verbose=args.verbose)
        emit("table2", rows, render_table2(rows))
    if "table3" in want:
        print(f"== Table 3 (scale={scale.name}, K={scale.k_primary}) ==")
        table = table3(scale, verbose=args.verbose, jobs=args.jobs)
        emit("table3", list(table.cells.values()),
             render_solver_table(table, scale.solvers))
    if "table4" in want:
        print(f"== Table 4 (scale={scale.name}, K={scale.k_secondary}) ==")
        table = table4(scale, verbose=args.verbose, jobs=args.jobs)
        emit("table4", list(table.cells.values()),
             render_solver_table(table, scale.solvers))
    if "table5" in want:
        print(f"== Table 5 (scale={scale.name}, K={scale.k_primary}) ==")
        records = table5(scale, verbose=args.verbose, jobs=args.jobs)
        emit("table5", records, render_table5(records, scale.time_limit))
    if "figure1" in want:
        print("== Figure 1 ==")
        rows = figure1_counts()
        emit("figure1", rows, render_figure1(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
