"""The paper's four instance-independent SBP constructions (Section 3).

All four break (subsets of) the color-permutation symmetry that every
0-1 ILP coloring instance has, and are added *during encoding*, before
any symmetry detection:

* **NU** (null-color elimination): unused colors sink to the end —
  ``y_{k+1} -> y_k``; K-1 binary clauses, no new variables.
* **CA** (cardinality ordering): color class sizes are non-increasing —
  ``sum_v x[v][k] >= sum_v x[v][k+1]``; K-1 PB constraints.
* **LI** (lowest-index ordering): fully breaks color symmetry by
  ordering the lowest-index vertex of successive colors.  The paper's
  printed clause set is internally inconsistent; we implement the
  semantics of its Figure 1(e)/worked example — the lowest-index
  vertices of colors 1, 2, ..., m are in *descending* vertex order, and
  used colors form a prefix — via prefix-occurrence variables, keeping
  the claimed linear O(nK) size (see DESIGN.md).
* **SC** (selective coloring): pin the highest-degree vertex to color 1
  and its highest-degree neighbor to color 2; two unit clauses.

Every construction is *sound*: it preserves at least one optimal
solution (Section 3 of the paper gives the arguments; the test suite
re-verifies optimum preservation by brute force on small graphs).
"""

from __future__ import annotations

from typing import List, Tuple

from ..coloring.encoding import ColoringEncoding, selective_coloring_pins

SBP_KINDS = ("none", "nu", "ca", "li", "sc", "nu+sc")


def add_null_color_elimination(encoding: ColoringEncoding) -> int:
    """NU: ``y_{k+1} -> y_k`` for k = 1..K-1; returns #clauses added."""
    encoding.formula.add_clauses(
        (-encoding.y(k + 1), encoding.y(k)) for k in range(1, encoding.num_colors)
    )
    return encoding.num_colors - 1


def add_cardinality_ordering(encoding: ColoringEncoding) -> int:
    """CA: ``|class k| >= |class k+1|``; returns #PB constraints added."""
    formula = encoding.formula
    n = encoding.graph.num_vertices
    for k in range(1, encoding.num_colors):
        terms = [(1, encoding.x(v, k)) for v in range(n)]
        terms += [(-1, encoding.x(v, k + 1)) for v in range(n)]
        formula.add_pb(terms, ">=", 0)
    return encoding.num_colors - 1


def add_lowest_index_ordering(encoding: ColoringEncoding) -> int:
    """LI: complete color-symmetry breaking; returns #clauses added.

    Auxiliary variables (2nK of them):

    * ``P[v][k]`` — some vertex with index <= v has color k;
    * ``V[v][k]`` — v is the lowest-index vertex with color k.

    Clauses per (v, k): P-definition (3), V-definition (3), plus the
    ordering clause ``V[v][k] & y_{k+1} -> P[v-1][k+1]`` and the NU
    chain (so LI subsumes NU, as the paper requires).
    """
    formula = encoding.formula
    graph = encoding.graph
    n = graph.num_vertices
    K = encoding.num_colors
    p_var = {}
    v_var = {}
    for k in range(1, K + 1):
        for v in range(n):
            p_var[(v, k)] = formula.new_var()
            v_var[(v, k)] = formula.new_var()
    clauses: List[Tuple[int, ...]] = []
    add = clauses.append
    for k in range(1, K + 1):
        for v in range(n):
            x_vk = encoding.x(v, k)
            p_vk = p_var[(v, k)]
            v_vk = v_var[(v, k)]
            if v == 0:
                # P[0][k] <-> x[0][k]; V[0][k] <-> x[0][k].
                add((-x_vk, p_vk))
                add((-p_vk, x_vk))
                add((-x_vk, v_vk))
                add((-v_vk, x_vk))
                continue
            p_prev = p_var[(v - 1, k)]
            # P[v][k] <-> P[v-1][k] | x[v][k]
            add((-p_prev, p_vk))
            add((-x_vk, p_vk))
            add((-p_vk, p_prev, x_vk))
            # V[v][k] <-> x[v][k] & ~P[v-1][k]
            add((-x_vk, p_prev, v_vk))
            add((-v_vk, x_vk))
            add((-v_vk, -p_prev))
    # Ordering: if v is lowest for color k and color k+1 is used, then
    # color k+1 already appeared strictly before v (descending
    # lowest-index convention of the paper's Figure 1(e)).
    for k in range(1, K):
        y_next = encoding.y(k + 1)
        for v in range(n):
            v_vk = v_var[(v, k)]
            if v == 0:
                add((-v_vk, -y_next))
            else:
                add((-v_vk, -y_next, p_var[(v - 1, k + 1)]))
    formula.add_clauses(clauses)
    # NU chain, so LI subsumes NU (unused colors form a suffix).
    return len(clauses) + add_null_color_elimination(encoding)


def add_selective_coloring(encoding: ColoringEncoding) -> int:
    """SC: pin the max-degree vertex and its max-degree neighbor."""
    pins = selective_coloring_pins(encoding.graph, encoding.num_colors)
    encoding.formula.add_clauses((encoding.x(vertex, color),) for vertex, color in pins)
    return len(pins)


def apply_sbp(encoding: ColoringEncoding, kind: str) -> ColoringEncoding:
    """Return a copy of the encoding with the named SBPs appended.

    ``kind`` is one of ``"none"``, ``"nu"``, ``"ca"``, ``"li"``,
    ``"sc"``, ``"nu+sc"`` (matching the rows of the paper's tables).
    """
    if kind not in SBP_KINDS:
        raise ValueError(f"unknown SBP kind {kind!r}; expected one of {SBP_KINDS}")
    out = encoding.copy()
    if kind == "nu":
        add_null_color_elimination(out)
    elif kind == "ca":
        add_cardinality_ordering(out)
    elif kind == "li":
        add_lowest_index_ordering(out)
    elif kind == "sc":
        add_selective_coloring(out)
    elif kind == "nu+sc":
        add_null_color_elimination(out)
        add_selective_coloring(out)
    return out
