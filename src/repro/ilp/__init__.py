"""Generic ILP branch-and-bound over LP relaxations (CPLEX stand-in)."""

from .branch_and_bound import BranchAndBoundSolver
from .model import ILPModel, formula_to_ilp

__all__ = ["BranchAndBoundSolver", "ILPModel", "formula_to_ilp"]
