"""Structural graph analysis: decompositions for coloring.

* connected components — the kernel's components
  (:func:`repro.coloring.reduce.kernelize`), which the pipeline solves
  one by one;
* bipartiteness — a BFS 2-coloring, kept as the reference oracle the
  tests check two-colorable instances against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from .graph import Graph


def connected_components(graph: Graph) -> List[List[int]]:
    """Connected components as sorted vertex lists, ordered by minimum."""
    n = graph.num_vertices
    seen = [False] * n
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        component = []
        while queue:
            v = queue.popleft()
            component.append(v)
            for w in sorted(graph.neighbors(v)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        components.append(sorted(component))
    return components


def is_bipartite(graph: Graph) -> Tuple[bool, Optional[Dict[int, int]]]:
    """BFS 2-coloring; returns ``(True, sides)`` or ``(False, None)``."""
    n = graph.num_vertices
    side: Dict[int, int] = {}
    for start in range(n):
        if start in side:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return False, None
    return True, side
