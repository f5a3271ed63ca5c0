"""Kernelization for K-coloring: shrink the instance before encoding.

The *reduce stage* in front of every encoding applies three classical
reductions:

* **clique bound** — a greedy clique lower-bounds the chromatic number,
  so a color budget below it is infeasible outright;
* **low-degree peeling** — a vertex with degree < K can always be
  colored last (some color is free), so it can be removed; iterate to a
  fixpoint (this deletes everything outside the (K-1)-core);
* **component split** — color connected components independently.

:func:`kernelize` is the one place that applies them, under one policy:
a decision or budgeted run with K colors is UNSAT when the clique bound
exceeds K; a decision peels at K, which is exact for K-colorability;
everything else peels at the clique bound ``lb``, which preserves the
chromatic number (``chi(G) = max(chi(kernel), lb)``).  :func:`lift`
maps colorings of kernel pieces back, re-inserts the peeled vertices
and verifies the result on the input graph.  ``peel_low_degree`` and
``extend_coloring`` are the two halves of the peel.  On sparse
benchmarks (books, miles) the kernel is dramatically smaller than the
input, which is exactly why the paper's "realistic graphs are
relatively sparse" instances are tractable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..graphs.analysis import connected_components
from ..graphs.cliques import clique_lower_bound
from ..graphs.graph import Graph
from .encoding import normalize_coloring
from .verify import check_proper


@dataclass
class Kernel:
    """A reduced K-coloring instance plus the undo information."""

    graph: Graph  # the kernel graph (possibly empty)
    k: int  # peeling threshold: re-inserted vertices take colors 1..k
    kernel_to_original: List[int]
    peeled: List[Tuple[int, List[int]]] = field(default_factory=list)
    # peeled entries are (original vertex, original neighbor list) in
    # removal order; re-coloring replays them in reverse.
    source: Optional[Graph] = None  # the input graph
    clique_bound: int = 0
    # Connected components of ``graph`` as sorted vertex lists in kernel
    # numbering, ordered by smallest vertex (filled by kernelize).
    components: List[List[int]] = field(default_factory=list)
    seconds: float = 0.0  # time kernelize spent building this kernel

    @property
    def infeasible(self) -> bool:
        """True when the clique bound alone exceeds the K colors."""
        return self.clique_bound > self.k


def peel_low_degree(graph: Graph, k: int) -> Kernel:
    """Remove vertices of degree < k to a fixpoint (the (k-1)-core)."""
    n = graph.num_vertices
    alive = [True] * n
    degree = [graph.degree(v) for v in range(n)]
    stack = [v for v in range(n) if degree[v] < k]
    peeled: List[Tuple[int, List[int]]] = []
    while stack:
        v = stack.pop()
        if not alive[v] or degree[v] >= k:
            continue
        alive[v] = False
        # Sorted so the peel record (and the colors extend_coloring
        # later picks) cannot drift with adjacency-set hash order.
        peeled.append((v, [w for w in sorted(graph.neighbors(v)) if alive[w]]))
        for w in sorted(graph.neighbors(v)):
            if alive[w]:
                degree[w] -= 1
                if degree[w] < k:
                    stack.append(w)
    survivors = [v for v in range(n) if alive[v]]
    kernel_graph = graph.subgraph(survivors)
    kernel_graph.name = f"{graph.name}-core{k}" if graph.name else ""
    return Kernel(kernel_graph, k, survivors, peeled, source=graph)


def extend_coloring(kernel: Kernel, kernel_coloring: Dict[int, int]) -> Dict[int, int]:
    """Lift a kernel coloring back to the original graph.

    Peeled vertices are re-inserted in reverse removal order; each had
    degree < k at removal time, so a free color always exists.
    """
    coloring: Dict[int, int] = {
        kernel.kernel_to_original[v]: c for v, c in kernel_coloring.items()
    }
    for v, neighbors in reversed(kernel.peeled):
        used = {coloring[w] for w in neighbors if w in coloring}
        color = next(c for c in range(1, kernel.k + 1) if c not in used)
        coloring[v] = color
    return coloring


def kernelize(
    graph: Graph, budget: Optional[int] = None, decision: bool = False
) -> Kernel:
    """The reduce stage: clique bound, low-degree peeling, component split.

    ``budget`` is the run's color count (a decision's K, an
    optimization's budget), ``None`` for an uncapped chromatic number.
    A budget below the clique bound gives an :attr:`~Kernel.infeasible`
    kernel, left unpeeled.  Otherwise a ``decision`` peels at the budget
    and every other run at ``max(1, clique bound)``; the kernel's
    components are listed either way.
    """
    start = time.monotonic()
    lb = clique_lower_bound(graph)
    if budget is not None and lb > budget:
        kernel = Kernel(graph, budget, list(range(graph.num_vertices)),
                        source=graph)
    else:
        kernel = peel_low_degree(graph, budget if decision else max(1, lb))
        kernel.components = connected_components(kernel.graph)
    kernel.clique_bound = lb
    kernel.seconds = time.monotonic() - start
    return kernel


def lift(
    kernel: Kernel, parts: Iterable[Tuple[Sequence[int], Dict[int, int]]]
) -> Dict[int, int]:
    """Color the input graph from colorings of kernel pieces.

    Each part is ``(vertices, coloring)``: ``coloring`` colors a graph
    whose vertex ``i`` is kernel vertex ``vertices[i]`` — one of
    :attr:`Kernel.components`, or the whole kernel.  Each part's colors
    are renamed to ``1..m`` first, so the greedily re-inserted peeled
    vertices stay within ``max(m, k)`` colors.  The result is checked
    proper on the input graph (``ValueError`` otherwise).
    """
    kernel_coloring: Dict[int, int] = {}
    for vertices, coloring in parts:
        for local, color in normalize_coloring(coloring).items():
            kernel_coloring[vertices[local]] = color
    coloring = extend_coloring(kernel, kernel_coloring)
    if coloring:
        check_proper(kernel.source, coloring)
    return coloring
