"""Symmetry machinery: permutations, groups, refinement, automorphisms,
formula graphs, Aut(G) × S_K lifted onto coloring formulas, and the
detection pipeline (Saucy + GAP stand-ins)."""

from .automorphism import AutomorphismFinder, AutomorphismResult, find_automorphisms
from .canonical import canonical_form, canonical_labeling
from .detect import SymmetryReport, detect_symmetries
from .formula_graph import (
    FormulaGraph,
    build_formula_graph,
    formula_perm_is_consistent,
    graph_perm_to_formula_perm,
)
from .group import PermutationGroup, orbit_of, orbits
from .permutation import Permutation
from .refinement import OrderedPartition, individualize, is_equitable, refine

__all__ = [
    "AutomorphismFinder",
    "AutomorphismResult",
    "FormulaGraph",
    "OrderedPartition",
    "Permutation",
    "PermutationGroup",
    "SymmetryReport",
    "build_formula_graph",
    "canonical_form",
    "canonical_labeling",
    "detect_symmetries",
    "find_automorphisms",
    "formula_perm_is_consistent",
    "graph_perm_to_formula_perm",
    "individualize",
    "is_equitable",
    "orbit_of",
    "orbits",
    "refine",
]
