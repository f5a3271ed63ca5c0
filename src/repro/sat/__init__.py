"""CDCL SAT solving: the engine underneath every solver in the library."""

from .brute import brute_force_count, brute_force_optimize, brute_force_solve
from .cdcl import CDCLSolver, WClause, solve_formula
from .factory import new_solver, register_solver, reset_solver_factory, set_solver_factory
from .luby import luby, luby_sequence
from .preprocessing import (
    PreprocessResult,
    SimplifyStats,
    preprocess,
    simplify_formula,
    subsume_clauses,
)
from .result import (
    OPTIMAL,
    SAT,
    UNKNOWN,
    UNSAT,
    OptimizeResult,
    SolveResult,
    SolverStats,
)
from .vsids import VSIDS

__all__ = [
    "CDCLSolver",
    "OPTIMAL",
    "OptimizeResult",
    "PreprocessResult",
    "SAT",
    "SimplifyStats",
    "SolveResult",
    "SolverStats",
    "UNKNOWN",
    "UNSAT",
    "VSIDS",
    "WClause",
    "brute_force_count",
    "brute_force_optimize",
    "brute_force_solve",
    "luby",
    "luby_sequence",
    "new_solver",
    "preprocess",
    "register_solver",
    "reset_solver_factory",
    "set_solver_factory",
    "simplify_formula",
    "solve_formula",
    "subsume_clauses",
]
