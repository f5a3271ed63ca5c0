"""DIMACS ``.col`` graph format.

The DIMACS graph-coloring benchmark suite (the instances in the paper's
Table 1) uses a simple line format::

    c comment
    p edge <num_vertices> <num_edges>
    e <u> <v>        (1-based endpoints)

The reader tolerates duplicate edge lines and both edge directions, as
the published benchmark files do.
"""

from __future__ import annotations

from typing import List, Optional, TextIO, Union

from .graph import Graph

PathOrFile = Union[str, TextIO]


def _open_for(target: PathOrFile, mode: str):
    if isinstance(target, (str, bytes)):
        return open(target, mode), True
    return target, False


def _ints(parts: List[str]) -> Optional[List[int]]:
    """``parts`` as ints, or ``None`` if one is not an integer."""
    try:
        return [int(p) for p in parts]
    except ValueError:
        return None


def _bad(number: int, what: str, line: str) -> ValueError:
    return ValueError(f"line {number}: {what}: {line!r}")


def read_dimacs_graph(source: PathOrFile, name: str = "") -> Graph:
    """Parse a DIMACS ``.col`` file into a :class:`Graph`.

    A malformed problem or edge line, an edge line before the problem
    line, or an endpoint outside ``1..n`` raises ``ValueError`` naming
    the line.
    """
    handle, owned = _open_for(source, "r")
    try:
        graph: Graph = Graph(0, name=name)
        declared = None
        for number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                counts = _ints(parts[2:3])
                if (len(parts) < 3 or parts[1] not in ("edge", "edges", "col")
                        or not counts or counts[0] < 0):
                    raise _bad(number, "malformed problem line", line)
                declared = counts[0]
                graph = Graph(declared, name=name)
            elif parts[0] == "e":
                if declared is None:
                    raise _bad(number, "edge line before the problem line", line)
                ends = _ints(parts[1:3])
                if ends is None or len(ends) < 2:
                    raise _bad(number, "malformed edge line", line)
                u, v = ends
                if not (1 <= u <= declared and 1 <= v <= declared):
                    raise _bad(number, f"edge endpoint outside 1..{declared}", line)
                if u != v:  # some benchmark files contain stray loops
                    graph.add_edge(u - 1, v - 1)
        if declared is None:
            raise ValueError("no problem line found")
        return graph
    finally:
        if owned:
            handle.close()


def write_dimacs_graph(graph: Graph, target: PathOrFile) -> None:
    """Write a graph as a DIMACS ``.col`` file (1-based vertices)."""
    handle, owned = _open_for(target, "w")
    try:
        if graph.name:
            handle.write(f"c {graph.name}\n")
        handle.write(f"p edge {graph.num_vertices} {graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"e {u + 1} {v + 1}\n")
    finally:
        if owned:
            handle.close()
