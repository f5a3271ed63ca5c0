"""Colored-graph automorphism search — the Saucy/Nauty stand-in.

Individualization-refinement backtracking: refine the coloring to an
equitable partition, pick the first non-singleton cell, branch on each
of its vertices, recurse.  The first leaf reached fixes a reference
labeling; every later leaf is compared against it, and matching leaves
yield automorphism generators.  Siblings are pruned when a known
automorphism that fixes the current branch prefix pointwise maps them
to an already-explored sibling (sound: the pruned subtree's
automorphisms are conjugates of found ones).

This returns a *generator set* for the automorphism group, which is
exactly what the symmetry-breaking flow consumes (the paper's flow
feeds Saucy generators to the SBP construction).

The search halts on a node budget or a caller's ``should_stop``
predicate, polled once per node.  A halt unwinds the whole tree: no
open level individualizes or refines another sibling, and the
generators found so far come back with ``complete=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..graphs.graph import Graph
from .group import orbit_of
from .permutation import Permutation
from .refinement import OrderedPartition, individualize, refine


@dataclass
class AutomorphismResult:
    """Outcome of an automorphism search."""

    generators: List[Permutation] = field(default_factory=list)
    complete: bool = True  # False when the node budget or a stop cut it
    nodes_explored: int = 0

    def num_generators(self) -> int:
        return len(self.generators)


class AutomorphismFinder:
    """Reusable automorphism search over a fixed graph + vertex coloring."""

    def __init__(
        self,
        graph: Graph,
        colors: Optional[Sequence[int]] = None,
        node_limit: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ):
        self.graph = graph
        n = graph.num_vertices
        if colors is None:
            colors = [0] * n
        if len(colors) != n:
            raise ValueError("one color per vertex required")
        self.colors = list(colors)
        self.node_limit = node_limit
        self.should_stop = should_stop

    def _halts(self, nodes: int) -> bool:
        """True when the node budget is spent or the caller asks to stop."""
        if self.node_limit is not None and nodes >= self.node_limit:
            return True
        return self.should_stop is not None and self.should_stop()

    def run(self) -> AutomorphismResult:
        """Execute the search and return the generator set."""
        graph = self.graph
        n = graph.num_vertices
        result = AutomorphismResult()
        if n == 0:
            return result
        root = refine(graph, OrderedPartition.from_colors(self.colors))
        first_leaf: List[Optional[List[int]]] = [None]

        def fixing_generators(prefix: List[int]) -> List[Permutation]:
            prefix_set = prefix
            return [
                g
                for g in result.generators
                if all(g(v) == v for v in prefix_set)
            ]

        def handle_leaf(partition: OrderedPartition) -> None:
            labeling = partition.labeling()
            if first_leaf[0] is None:
                first_leaf[0] = labeling
                return
            base = first_leaf[0]
            image = [0] * n
            for a, b in zip(base, labeling):
                image[a] = b
            if sorted(image) != list(range(n)):
                return
            if all(i == j for i, j in enumerate(image)):
                return
            candidate_ok = graph.is_automorphism(image) and all(
                self.colors[v] == self.colors[image[v]] for v in range(n)
            )
            if candidate_ok:
                result.generators.append(Permutation(image))

        def recurse(partition: OrderedPartition, prefix: List[int]) -> None:
            if self._halts(result.nodes_explored):
                result.complete = False
                return
            result.nodes_explored += 1
            target = partition.first_non_singleton()
            if target < 0:
                handle_leaf(partition)
                return
            cell = sorted(partition.cells[target])
            explored: List[int] = []
            for v in cell:
                if not result.complete:
                    return  # halted below: unwind, refine no sibling
                if explored:
                    fixing = fixing_generators(prefix)
                    if fixing:
                        orbit = orbit_of(v, fixing)
                        if any(w in orbit for w in explored):
                            explored.append(v)
                            continue
                child = individualize(partition, target, v)
                child = refine(self.graph, child, active=[target])
                recurse(child, prefix + [v])
                explored.append(v)
        recurse(root, [])
        return result


def find_automorphisms(
    graph: Graph,
    colors: Optional[Sequence[int]] = None,
    node_limit: Optional[int] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> AutomorphismResult:
    """Convenience wrapper around :class:`AutomorphismFinder`."""
    return AutomorphismFinder(
        graph, colors=colors, node_limit=node_limit, should_stop=should_stop
    ).run()
