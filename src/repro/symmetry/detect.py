"""End-to-end symmetry detection on formulas (the paper's Shatter flow,
detection half): formula -> automorphism generators -> formula
symmetries + group statistics.

Two routes lead there.  Given the coloring layout a formula came from,
detection lifts the graph's automorphisms and the color permutations
onto the formula (:mod:`.lifted`) and verifies each one; otherwise, or
when a lifted permutation fails verification, it searches the
formula's colored graph (:mod:`.formula_graph`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core.formula import Formula
from .automorphism import find_automorphisms
from .formula_graph import (
    FormulaGraph,
    build_formula_graph,
    formula_perm_is_consistent,
    graph_perm_to_formula_perm,
)
from .group import PermutationGroup
from .lifted import ColoringLayout, lift_coloring_symmetries
from .permutation import Permutation


@dataclass
class SymmetryReport:
    """What the paper's Table 2 reports per formula.

    ``generators`` are permutations over *literal indices* (degree
    ``2 * num_vars``, see :func:`repro.core.literals.lit_index`).
    ``order`` is the symmetry group order (``#S``), computed by
    Schreier–Sims from the generators.  ``route`` names how they were
    found: ``"lifted"`` (Aut(G) × S_K lifted from the coloring's graph)
    or ``"formula"`` (the formula-graph search).  ``graph_vertices`` and
    ``nodes_explored`` describe the graph that route searched — the
    coloring's n vertices, or the formula graph.  ``complete`` is False
    when a node limit or a stop request cut that search short.
    """

    generators: List[Permutation] = field(default_factory=list)
    order: int = 1
    detection_seconds: float = 0.0
    complete: bool = True
    graph_vertices: int = 0
    nodes_explored: int = 0
    route: str = "formula"

    @property
    def num_generators(self) -> int:
        return len(self.generators)


def detect_symmetries(
    formula: Formula,
    node_limit: Optional[int] = None,
    compute_order: bool = True,
    coloring: Optional[ColoringLayout] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> SymmetryReport:
    """Detect the symmetries of a formula.

    With ``coloring`` — the layout of the K-coloring encoding the
    formula came from — the color transpositions and the lifted Aut(G)
    generators are returned if every one of them verifies against the
    formula (route ``"lifted"``); if any fails, or without
    ``coloring``, the formula graph is searched (route ``"formula"``).
    ``node_limit`` bounds the automorphism search, and ``should_stop``
    is polled once per search node; either cut leaves the generators
    found so far with ``complete=False`` (lex-leader SBPs over any
    subset of symmetries stay sound).  ``compute_order`` can be
    disabled when only generators are needed (the Schreier–Sims order
    computation can dominate for very large groups).
    """
    start = time.monotonic()
    lifted = None
    if coloring is not None:
        lifted = lift_coloring_symmetries(
            formula, coloring, node_limit, should_stop)
    if lifted is not None:
        generators, search = lifted
        route, vertices = "lifted", coloring.graph.num_vertices
    else:
        fgraph: FormulaGraph = build_formula_graph(formula)
        search = find_automorphisms(
            fgraph.graph, colors=fgraph.colors, node_limit=node_limit,
            should_stop=should_stop,
        )
        generators = []
        for perm in search.generators:
            restricted = graph_perm_to_formula_perm(fgraph, perm)
            if not formula_perm_is_consistent(restricted):
                # Cannot happen with variable vertices in the construction;
                # guard against regressions rather than emit unsound SBPs.
                continue
            if not restricted.is_identity:
                generators.append(restricted)
        route, vertices = "formula", fgraph.graph.num_vertices
    order = 1
    if compute_order and generators:
        order = PermutationGroup(generators).order()
    return SymmetryReport(
        generators=generators,
        order=order,
        detection_seconds=time.monotonic() - start,
        complete=search.complete,
        graph_vertices=vertices,
        nodes_explored=search.nodes_explored,
        route=route,
    )
