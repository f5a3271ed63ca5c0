"""Pseudo-Boolean (0-1 ILP) solving: engine, optimizer and solver presets."""

from .engine import PBData, PBSolver
from .optimizer import minimize
from .presets import PRESETS, SolverPreset, get_preset, solve_optimize

__all__ = [
    "PBData",
    "PBSolver",
    "PRESETS",
    "SolverPreset",
    "get_preset",
    "minimize",
    "solve_optimize",
]
