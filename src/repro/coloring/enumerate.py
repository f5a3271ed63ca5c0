"""Solution enumeration: count/list colorings a formula admits.

Symmetry breaking is fundamentally about *how many* equivalent
solutions survive — Figure 1 of the paper counts them by hand on a
4-vertex example.  This module does it mechanically for any instance,
by repeatedly solving and adding blocking clauses over the indicator
variables (auxiliary variables are projected away, so two models that
differ only in SBP chain variables count once).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..core.formula import Formula
from ..pb.engine import PBSolver
from ..sat.factory import register_solver
from .encoding import ColoringEncoding, decode_coloring


def enumerate_models(
    formula: Formula,
    project_onto: Sequence[int],
    limit: Optional[int] = None,
    conflict_limit_per_model: Optional[int] = None,
) -> Iterator[Dict[int, bool]]:
    """Yield models projected onto ``project_onto`` variables.

    Each yielded assignment is distinct on the projection variables;
    enumeration blocks the projection, not the full model.  ``limit``
    caps the number of models (None = all).
    """
    variables = list(dict.fromkeys(project_onto))
    if not variables:
        raise ValueError("projection set must be non-empty")
    solver = register_solver(PBSolver())
    if not solver.add_formula(formula):
        return
    count = 0
    while limit is None or count < limit:
        result = solver.solve(conflict_limit=conflict_limit_per_model)
        if not result.is_sat:
            return
        projection = {v: result.model[v] for v in variables}
        yield projection
        count += 1
        blocking = [(-v if projection[v] else v) for v in variables]
        if not solver.add_clause(blocking):
            return


def count_colorings(
    encoding: ColoringEncoding,
    optimal_only: bool = False,
    limit: Optional[int] = None,
) -> int:
    """Count distinct x-variable assignments the encoding admits.

    With ``optimal_only`` the count is restricted to colorings using the
    minimum number of colors (found first with a dedicated solve).
    ``limit`` caps the enumeration for large solution spaces.
    """
    formula = encoding.formula.copy()
    x_vars = sorted(encoding.x_var.values())
    if optimal_only:
        from ..pb.optimizer import minimize

        best = minimize(formula)
        if not best.is_optimal:
            raise RuntimeError(f"could not establish the optimum: {best.status}")
        # Fix the number of used colors to the optimum.
        y_terms = [(1, encoding.y(k)) for k in range(1, encoding.num_colors + 1)]
        formula.add_pb(y_terms, "=", best.best_value)
    return sum(1 for _ in enumerate_models(formula, x_vars, limit=limit))


def distinct_colorings(
    encoding: ColoringEncoding,
    limit: Optional[int] = None,
) -> List[Dict[int, int]]:
    """Materialize the admitted colorings (vertex -> color maps)."""
    formula = encoding.formula.copy()
    x_vars = sorted(encoding.x_var.values())
    out: List[Dict[int, int]] = []
    for projection in enumerate_models(formula, x_vars, limit=limit):
        # decode_coloring needs y values too; reconstruct from x.
        model = dict(projection)
        for k in range(1, encoding.num_colors + 1):
            used = any(
                projection[encoding.x(v, k)]
                for v in range(encoding.graph.num_vertices)
            )
            model[encoding.y(k)] = used
        out.append(decode_coloring(encoding, model))
    return out
