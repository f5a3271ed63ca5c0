"""Mehrotra–Trick independent-set formulation (Section 2.1 contrast).

The paper's encoding assigns colors to vertices with indicator
variables; Mehrotra & Trick (1996) instead introduce one 0-1 variable
per *maximal independent set* and solve a set-covering ILP:

    min  sum_S z_S     s.t.  sum_{S : v in S} z_S >= 1   for every v

The paper notes this formulation "inherently breaks problem symmetries,
and thus rules out the use of SBPs" — there simply are no color
variables to permute.  We implement it (with full maximal-independent-
set enumeration, plus a greedy column cap for larger graphs standing in
for column generation) so that claim can be demonstrated: detection on
the MT formulation finds only set-swap symmetries of the graph itself,
never a color factor of K!.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from ..core.formula import Formula
from ..graphs.graph import Graph
from ..pb.presets import solve_optimize
from ..sat.result import OptimizeResult


def maximal_independent_sets(graph: Graph, limit: Optional[int] = None) -> List[FrozenSet[int]]:
    """All maximal independent sets, via Bron–Kerbosch on the complement.

    ``limit`` caps the enumeration (the MT paper uses column generation
    instead of full enumeration; the cap plays that role here).
    """
    n = graph.num_vertices
    # Independent sets of G are cliques of the complement.
    comp_adj: List[Set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v):
                comp_adj[u].add(v)
                comp_adj[v].add(u)
    out: List[FrozenSet[int]] = []

    def bron_kerbosch(r: Set[int], p: Set[int], x: Set[int]) -> bool:
        if limit is not None and len(out) >= limit:
            return False
        if not p and not x:
            out.append(frozenset(r))
            return True
        # Tie-break the pivot and sort the candidates so the columns
        # (and with them the z-variable numbering the solver sees) come
        # out identically on every run, whatever the hash seed.
        pivot = max(p | x, key=lambda u: (len(comp_adj[u] & p), -u))
        for v in sorted(p - comp_adj[pivot]):
            if not bron_kerbosch(r | {v}, p & comp_adj[v], x & comp_adj[v]):
                return False
            p.discard(v)
            x.add(v)
        return True

    if n:
        bron_kerbosch(set(), set(range(n)), set())
    return out


def build_mt_formula(
    graph: Graph, columns: List[FrozenSet[int]]
) -> "tuple[Formula, Dict[int, FrozenSet[int]]]":
    """The set-covering ILP over the given independent-set columns."""
    formula = Formula()
    var_of_column: Dict[int, FrozenSet[int]] = {}
    for column in columns:
        var = formula.new_var()
        var_of_column[var] = column
    for v in graph.vertices():
        covering = [var for var, col in var_of_column.items() if v in col]
        if not covering:
            raise ValueError(f"vertex {v} is in no column; enumeration cap too tight")
        formula.add_clause(covering)  # cover constraint: >= 1
    formula.set_objective([(1, var) for var in var_of_column])
    return formula, var_of_column


@dataclass
class MTResult:
    """Outcome of the Mehrotra–Trick pipeline."""

    status: str
    chromatic_number: Optional[int]
    coloring: Optional[Dict[int, int]]
    num_columns: int
    time_seconds: float


def mt_chromatic_number(
    graph: Graph,
    solver_preset: str = "pbs2",
    time_limit: Optional[float] = None,
    column_limit: Optional[int] = 20000,
) -> MTResult:
    """Chromatic number via the independent-set covering formulation.

    Covers may overlap; each vertex takes the color of the first chosen
    set containing it, which is a proper coloring because every chosen
    set is independent.
    """
    start = time.monotonic()
    if graph.num_vertices == 0:
        return MTResult("OPTIMAL", 0, {}, 0, 0.0)
    columns = maximal_independent_sets(graph, limit=column_limit)
    formula, var_of_column = build_mt_formula(graph, columns)
    result: OptimizeResult = solve_optimize(
        formula, preset=solver_preset, time_limit=time_limit
    )
    coloring: Optional[Dict[int, int]] = None
    value: Optional[int] = None
    if result.best_model is not None:
        chosen = [var for var in var_of_column if result.best_model[var]]
        coloring = {}
        for color, var in enumerate(chosen, start=1):
            for v in var_of_column[var]:
                coloring.setdefault(v, color)
        value = len({c for c in coloring.values()})
    return MTResult(
        status=result.status,
        chromatic_number=value,
        coloring=coloring,
        num_columns=len(columns),
        time_seconds=time.monotonic() - start,
    )
