"""A minimal undirected graph ADT.

Vertices are the integers ``0 .. n-1``; edges are unordered pairs of
distinct vertices (no self-loops, no multi-edges).  The representation
is an adjacency-set list, which is what the coloring encoder, the
symmetry machinery and the heuristics all want.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple


class Graph:
    """Undirected simple graph on vertices ``0..n-1``."""

    def __init__(self, num_vertices: int = 0, name: str = "") -> None:
        if num_vertices < 0:
            raise ValueError("vertex count cannot be negative")
        self._adj: List[Set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges: int = 0
        self.name: str = name

    # ------------------------------------------------------------ building
    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[Tuple[int, int]], name: str = ""
    ) -> "Graph":
        """Build a graph from an edge list."""
        graph = cls(num_vertices, name=name)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def add_vertex(self) -> int:
        """Append a fresh vertex; returns its id."""
        self._adj.append(set())
        return len(self._adj) - 1

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge {u, v}; returns False if it already existed."""
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        return True

    def _check(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise IndexError(f"vertex {v} out of range 0..{len(self._adj) - 1}")

    # ------------------------------------------------------------- queries
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> range:
        return range(len(self._adj))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as ordered pairs ``(u, v)`` with u < v."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> Set[int]:
        self._check(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Largest vertex degree (0 for the empty graph)."""
        return max((len(nbrs) for nbrs in self._adj), default=0)

    def density(self) -> float:
        """Edge density relative to the complete graph."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    # --------------------------------------------------------- derivations
    def copy(self) -> "Graph":
        dup = Graph(self.num_vertices, name=self.name)
        dup._adj = [set(nbrs) for nbrs in self._adj]
        dup._num_edges = self._num_edges
        return dup

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is ``vertices[i]``."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices in subgraph selection")
        sub = Graph(len(vertices))
        for v, i in index.items():
            self._check(v)
            for w in self._adj[v]:
                j = index.get(w)
                if j is not None and i < j:
                    sub.add_edge(i, j)
        return sub

    def relabel(self, permutation: Sequence[int]) -> "Graph":
        """Image of the graph under a vertex permutation (v -> perm[v])."""
        if sorted(permutation) != list(range(self.num_vertices)):
            raise ValueError("not a permutation of the vertex set")
        out = Graph(self.num_vertices, name=self.name)
        for u, v in self.edges():
            out.add_edge(permutation[u], permutation[v])
        return out

    def is_automorphism(self, permutation: Sequence[int]) -> bool:
        """True when the vertex permutation preserves adjacency."""
        if sorted(permutation) != list(range(self.num_vertices)):
            return False
        return all(
            permutation[v] in self._adj[permutation[u]] for u, v in self.edges()
        )

    # ----------------------------------------------------------- validation
    def is_proper_coloring(self, coloring: Dict[int, int]) -> bool:
        """True when every vertex is colored and no edge is monochromatic."""
        if any(v not in coloring for v in self.vertices()):
            return False
        return all(coloring[u] != coloring[v] for u, v in self.edges())

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Graph({label} |V|={self.num_vertices}, |E|={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.num_vertices == other.num_vertices
            and self._adj == other._adj
        )


def disjoint_union(*graphs: Graph, name: str = "") -> Graph:
    """The disjoint union of the given graphs, vertices renumbered in order.

    The canonical disconnected instance: ``chi(G1 + G2) =
    max(chi(G1), chi(G2))``, so a descent over the union needs only the
    hardest component's refutation (what the differential tests stress).
    """
    union = Graph(sum(g.num_vertices for g in graphs), name=name)
    offset = 0
    for g in graphs:
        for u, v in g.edges():
            union.add_edge(u + offset, v + offset)
        offset += g.num_vertices
    if not name:
        union.name = "+".join(g.name for g in graphs if g.name)
    return union
