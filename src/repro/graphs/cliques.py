"""Clique computation.

The max-clique size lower-bounds the chromatic number (paper Section
2.1), which the chromatic-number search uses to stop early, and the SC
(selective coloring) SBP is motivated by clique seeding.  We provide a
fast greedy heuristic plus an exact branch-and-bound (Carraghan–Pardalos
style with a greedy-coloring bound) for small/medium graphs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .graph import Graph

#: How many of the highest-degree vertices seed a greedy clique.
_CLIQUE_STARTS = 8


def greedy_clique(graph: Graph, start: Optional[int] = None) -> List[int]:
    """Grow a clique greedily from the highest-degree vertex.

    Returns the clique as a vertex list.  Linear-time apart from the
    neighbor intersections; used as a cheap chromatic lower bound.
    """
    if graph.num_vertices == 0:
        return []
    if start is None:
        start = max(graph.vertices(), key=graph.degree)
    clique = [start]
    candidates = set(graph.neighbors(start))
    while candidates:
        # Pick the candidate with most neighbors among the candidates.
        best = max(candidates, key=lambda v: len(candidates & graph.neighbors(v)))
        clique.append(best)
        candidates &= graph.neighbors(best)
    return clique


def clique_lower_bound(graph: Graph) -> int:
    """Best greedy clique size over the highest-degree starts."""
    if graph.num_vertices == 0:
        return 0
    starts = sorted(graph.vertices(), key=graph.degree, reverse=True)[:_CLIQUE_STARTS]
    return max(len(greedy_clique(graph, s)) for s in starts)


def _coloring_bound(graph: Graph, candidates: Sequence[int]) -> int:
    """Greedy-coloring upper bound on the clique size within ``candidates``."""
    colors: dict = {}
    count = 0
    for v in candidates:
        used = {colors[w] for w in graph.neighbors(v) if w in colors}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
        if c + 1 > count:
            count = c + 1
    return count


def max_clique(graph: Graph, node_limit: Optional[int] = None) -> List[int]:
    """Exact maximum clique by branch and bound.

    Expands candidates in descending-degree order, pruning with the
    greedy-coloring bound.  ``node_limit`` caps the search (the best
    clique found so far is returned if the cap is hit), making the
    function safe to call on graphs where exactness is intractable.
    """
    best: List[int] = []
    order = sorted(graph.vertices(), key=graph.degree, reverse=True)
    nodes = [0]

    def expand(clique: List[int], candidates: List[int]) -> None:
        nonlocal best
        if node_limit is not None and nodes[0] > node_limit:
            return
        nodes[0] += 1
        if not candidates:
            if len(clique) > len(best):
                best = list(clique)
            return
        if len(clique) + _coloring_bound(graph, candidates) <= len(best):
            return
        while candidates:
            if len(clique) + len(candidates) <= len(best):
                return
            v = candidates.pop(0)
            clique.append(v)
            nbrs = graph.neighbors(v)
            expand(clique, [w for w in candidates if w in nbrs])
            clique.pop()

    expand([], order)
    return best


def is_clique(graph: Graph, vertices: Sequence[int]) -> bool:
    """True when the given vertices are pairwise adjacent."""
    vs = list(vertices)
    return all(
        graph.has_edge(vs[i], vs[j])
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
    )
