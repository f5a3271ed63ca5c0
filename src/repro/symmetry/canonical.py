"""Canonical labeling of graphs.

The individualization-refinement search in :mod:`.automorphism` visits
labeled leaves; picking the *minimum* certificate over all leaves gives
a canonical form — the other half of what Nauty computes.  Two graphs
are isomorphic iff their canonical certificates are equal; the test
suite uses that to check relabeling invariance and determinism.

This is exponential in the worst case (as is Nauty's); the graphs the
reproduction feeds it are small or highly refined.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from .refinement import OrderedPartition, individualize, refine


def _certificate(graph: Graph, labeling: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Edge set under a labeling, as a sorted tuple (the leaf certificate)."""
    position = [0] * graph.num_vertices
    for pos, v in enumerate(labeling):
        position[v] = pos
    edges = []
    for u, v in graph.edges():
        a, b = position[u], position[v]
        edges.append((a, b) if a < b else (b, a))
    edges.sort()
    return tuple(edges)


def canonical_labeling(
    graph: Graph,
    colors: Optional[Sequence[int]] = None,
    node_limit: Optional[int] = None,
) -> List[int]:
    """A canonical labeling: vertex at canonical position i is result[i].

    Isomorphic graphs (with corresponding colors) produce labelings
    under which their edge sets coincide.  Raises ``RuntimeError`` if
    ``node_limit`` exhausts the search before any leaf is reached.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    if colors is None:
        colors = [0] * n
    root = refine(graph, OrderedPartition.from_colors(colors))
    best: List[Optional[Tuple]] = [None]
    best_labeling: List[Optional[List[int]]] = [None]
    nodes = [0]

    def recurse(partition: OrderedPartition) -> None:
        if node_limit is not None and nodes[0] >= node_limit:
            return
        nodes[0] += 1
        target = partition.first_non_singleton()
        if target < 0:
            labeling = partition.labeling()
            certificate = _certificate(graph, labeling)
            if best[0] is None or certificate < best[0]:
                best[0] = certificate
                best_labeling[0] = labeling
            return
        for v in sorted(partition.cells[target]):
            child = refine(graph, individualize(partition, target, v), active=[target])
            recurse(child)

    recurse(root)
    if best_labeling[0] is None:
        raise RuntimeError("node limit exhausted before reaching a leaf")
    return best_labeling[0]


def canonical_form(
    graph: Graph,
    colors: Optional[Sequence[int]] = None,
    node_limit: Optional[int] = None,
) -> Tuple[Tuple[int, int], ...]:
    """The canonical edge-set certificate of a (colored) graph."""
    return _certificate(graph, canonical_labeling(graph, colors, node_limit))
