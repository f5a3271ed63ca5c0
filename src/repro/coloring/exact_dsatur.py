"""Exact graph coloring by DSATUR-style branch and bound.

The problem-specific baseline of the exact-coloring literature the
paper discusses (Brown 1972, Brelaz 1979, Kubale & Jackowski 1985):
implicit enumeration over vertex color assignments, always branching on
the most saturated vertex, bounded below by a clique and above by the
incumbent.  Used here (a) as an independent cross-check of the 0-1 ILP
pipeline's chromatic numbers and (b) as the "specialized algorithm"
comparison point of the paper's Section 4.3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..graphs.cliques import greedy_clique
from ..graphs.coloring_heuristics import dsatur
from ..graphs.graph import Graph
from ..resilience import Deadline


@dataclass
class ExactColoringResult:
    """Outcome of an exact chromatic-number computation."""

    chromatic_number: Optional[int]
    coloring: Optional[Dict[int, int]]  # colors are 1-based
    optimal: bool
    nodes_explored: int
    time_seconds: float


def exact_chromatic_number(
    graph: Graph,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ExactColoringResult:
    """Compute the chromatic number by DSATUR branch and bound.

    On a resource limit, or once ``should_stop`` (polled with the
    deadline, every 256 nodes) turns true, the incumbent (DSATUR or
    better) is returned with ``optimal=False``.
    """
    start = time.monotonic()
    deadline = Deadline.after(time_limit)
    n = graph.num_vertices
    if n == 0:
        return ExactColoringResult(0, {}, True, 0, 0.0)

    heuristic, ub = dsatur(graph)
    best_coloring = {v: c + 1 for v, c in heuristic.items()}
    best = ub
    clique = greedy_clique(graph)
    lb = max(1, len(clique))

    # Seed: pre-color the clique (any exact solution can be relabeled so
    # the clique takes colors 1..|clique|, so this loses no solutions).
    assignment: Dict[int, int] = {}
    for i, v in enumerate(clique):
        assignment[v] = i + 1

    nodes = [0]
    timed_out = [False]
    adj = [graph.neighbors(v) for v in range(n)]

    def out_of_budget() -> bool:
        if node_limit is not None and nodes[0] > node_limit:
            return True
        if (nodes[0] & 255) == 0:
            if deadline.expired() or (should_stop is not None and should_stop()):
                return True
        return False

    def select_vertex() -> int:
        best_v, best_key = -1, None
        for v in range(n):
            if v in assignment:
                continue
            sat = len({assignment[w] for w in adj[v] if w in assignment})
            degree = len(adj[v])
            key = (-sat, -degree, v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    def recurse(colors_used: int) -> None:
        nonlocal best, best_coloring
        if out_of_budget():
            timed_out[0] = True
            return
        nodes[0] += 1
        if colors_used >= best:
            return
        if len(assignment) == n:
            best = colors_used
            best_coloring = dict(assignment)
            return
        v = select_vertex()
        forbidden = {assignment[w] for w in adj[v] if w in assignment}
        limit = min(colors_used + 1, best - 1)
        for color in range(1, limit + 1):
            if color in forbidden:
                continue
            assignment[v] = color
            recurse(max(colors_used, color))
            del assignment[v]
            if timed_out[0]:
                return
            if best <= lb:
                return

    recurse(len(clique))
    elapsed = time.monotonic() - start
    optimal = not timed_out[0] or best <= lb
    return ExactColoringResult(best, best_coloring, optimal, nodes[0], elapsed)
