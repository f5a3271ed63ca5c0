"""Coloring validation helpers (used by solvers, examples and tests)."""

from __future__ import annotations

from typing import Dict

from ..graphs.graph import Graph


def check_proper(graph: Graph, coloring: Dict[int, int]) -> None:
    """Raise ``ValueError`` unless ``coloring`` properly colors ``graph``."""
    for v in graph.vertices():
        if v not in coloring:
            raise ValueError(f"vertex {v} is uncolored")
    for u, v in graph.edges():
        if coloring[u] == coloring[v]:
            raise ValueError(f"edge ({u}, {v}) is monochromatic (color {coloring[u]})")
