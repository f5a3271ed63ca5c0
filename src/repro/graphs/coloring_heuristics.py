"""Greedy coloring heuristics: greedy, Welsh–Powell and DSATUR.

These play two roles in the reproduction, as in the paper:

* DSATUR (Brelaz 1979) supplies the feasible *upper bound* used to seed
  the chromatic-number search (paper Section 4.1's "apply any heuristic
  for min-coloring to determine a feasible upper bound").
* They are the heuristic baselines against which exact results are
  compared (Coudert's observation that heuristics can be far from
  optimal).

All functions return ``(coloring, num_colors)`` with colors ``0-based``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional, Sequence, Tuple

from .graph import Graph


def _first_free_color(graph: Graph, coloring: Dict[int, int], v: int) -> int:
    used = {coloring[w] for w in graph.neighbors(v) if w in coloring}
    color = 0
    while color in used:
        color += 1
    return color


def greedy_coloring(
    graph: Graph, order: Optional[Sequence[int]] = None
) -> Tuple[Dict[int, int], int]:
    """Color vertices in the given order with the lowest legal color."""
    if order is None:
        order = list(graph.vertices())
    if sorted(order) != list(graph.vertices()):
        raise ValueError("order must enumerate every vertex exactly once")
    coloring: Dict[int, int] = {}
    for v in order:
        coloring[v] = _first_free_color(graph, coloring, v)
    return coloring, (max(coloring.values()) + 1 if coloring else 0)


def welsh_powell(graph: Graph) -> Tuple[Dict[int, int], int]:
    """Greedy coloring in descending-degree order (Welsh & Powell 1967)."""
    order = sorted(graph.vertices(), key=lambda v: -graph.degree(v))
    return greedy_coloring(graph, order)


def dsatur(graph: Graph) -> Tuple[Dict[int, int], int]:
    """The DSATUR heuristic (Brelaz 1979).

    Repeatedly colors the uncolored vertex of maximal *saturation
    degree* (number of distinct colors among its neighbors), breaking
    ties by degree, with the lowest legal color.  Optimal on bipartite
    graphs.
    """
    n = graph.num_vertices
    coloring: Dict[int, int] = {}
    if n == 0:
        return coloring, 0
    neighbor_colors = [set() for _ in range(n)]
    # Max-heap keyed by (saturation, degree); lazy entries.
    heap = [(0, -graph.degree(v), v) for v in graph.vertices()]
    heapq.heapify(heap)
    while len(coloring) < n:
        while True:
            sat_neg, deg_neg, v = heapq.heappop(heap)
            if v in coloring:
                continue
            if -sat_neg != len(neighbor_colors[v]):
                heapq.heappush(heap, (-len(neighbor_colors[v]), deg_neg, v))
                continue
            break
        color = 0
        used = neighbor_colors[v]
        while color in used:
            color += 1
        coloring[v] = color
        for w in sorted(graph.neighbors(v)):
            if w not in coloring and color not in neighbor_colors[w]:
                neighbor_colors[w].add(color)
                heapq.heappush(heap, (-len(neighbor_colors[w]), -graph.degree(w), w))
    return coloring, max(coloring.values()) + 1
