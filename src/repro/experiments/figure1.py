"""Reproduction of the paper's Figure 1: the 4-vertex worked example.

Figure 1(a) is the graph with a triangle {V1, V2, V3} and a pendant V4
attached to V3, colored with a budget of K = 4.  The figure illustrates
how each instance-independent SBP shrinks the set of permissible
optimal (3-color) assignments:

* no SBPs  — colors permute freely: 24 ordered choices per independent-
  set partition, 2 partitions -> 48 optimal assignments;
* NU       — used colors form a prefix: 3! = 6 per partition -> 12;
* CA       — class sizes descend, the 2-element set takes color 1 -> 4;
* LI       — exactly one assignment per partition -> 2;
* SC       — pins V3 and one neighbor, leaving few choices.

``figure1_counts`` enumerates every proper coloring and asks the engine
which of them each construction admits: the formula is loaded into one
PB solver, and a coloring counts when its x/y literals, passed as
assumptions, come back SAT (the LI construction's auxiliary variables
are functions of the x variables, so the solver finds their values).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List

from ..coloring.encoding import ColoringEncoding, encode_coloring
from ..graphs.graph import Graph
from ..pb.presets import get_preset
from ..sbp.instance_independent import SBP_KINDS, apply_sbp


def figure1_graph() -> Graph:
    """The graph of Figure 1(a): triangle V1 V2 V3 plus V4 - V3."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], name="figure1")


@dataclass
class Figure1Row:
    """Counts of admissible assignments under one SBP construction."""

    sbp_kind: str
    optimal_allowed: int  # 3-color assignments that satisfy the SBPs
    total_allowed: int  # any-color assignments that satisfy the SBPs


def figure1_counts(num_colors: int = 4) -> List[Figure1Row]:
    """Enumerate colorings of the example and count survivors per SBP."""
    graph = figure1_graph()
    base = encode_coloring(graph, num_colors)
    rows: List[Figure1Row] = []
    colorings: List[Dict[int, int]] = []
    for assignment in product(range(1, num_colors + 1), repeat=graph.num_vertices):
        coloring = dict(enumerate(assignment))
        if all(coloring[u] != coloring[v] for u, v in graph.edges()):
            colorings.append(coloring)
    optimal = min(len(set(c.values())) for c in colorings)
    for kind in SBP_KINDS:
        encoding = apply_sbp(base, kind)
        solver = get_preset("pbs2").make_solver()
        loaded = solver.add_formula(encoding.formula)
        allowed = 0
        allowed_optimal = 0
        for coloring in colorings:
            if loaded and solver.solve(assumptions=_literals(encoding, coloring)).is_sat:
                allowed += 1
                if len(set(coloring.values())) == optimal:
                    allowed_optimal += 1
        rows.append(Figure1Row(kind, allowed_optimal, allowed))
    return rows


def _literals(encoding: ColoringEncoding, coloring: Dict[int, int]) -> List[int]:
    """The x and y literals that fix ``coloring`` in ``encoding``."""
    used = set(coloring.values())
    colors = range(1, encoding.num_colors + 1)
    lits = [encoding.x(v, k) if coloring[v] == k else -encoding.x(v, k)
            for v in coloring for k in colors]
    lits += [encoding.y(k) if k in used else -encoding.y(k) for k in colors]
    return lits


def render_figure1(rows: List[Figure1Row]) -> str:
    """ASCII rendering of the Figure 1 assignment counts."""
    lines = [
        "Figure 1 example: triangle {V1,V2,V3} + pendant V4 (K=4, chi=3)",
        f"{'SBP':8s} {'optimal assignments':>20s} {'all assignments':>17s}",
    ]
    for r in rows:
        lines.append(f"{r.sbp_kind:8s} {r.optimal_allowed:>20d} {r.total_allowed:>17d}")
    return "\n".join(lines)
