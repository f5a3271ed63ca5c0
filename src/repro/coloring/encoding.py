"""Graph coloring -> 0-1 ILP, exactly as in the paper's Section 2.5.

For a graph ``G(V, E)`` and color budget ``K``:

* indicator variables ``x[v][k]`` (vertex ``v`` has color ``k``),
  ``k = 1..K``;
* one PB constraint per vertex: ``sum_k x[v][k] = 1``;
* per edge ``(a, b)`` and color ``k``: clause ``(~x[a][k] | ~x[b][k])``;
* color-usage variables ``y[k]`` with ``y_k <-> OR_v x[v][k]``;
* objective ``MIN sum_k y_k``.

Totals match the paper: ``n*K + K`` variables, ``K*(m + n + 1)`` CNF
clauses, ``n`` PB constraints, one objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..core.formula import Formula
from ..graphs.graph import Graph


@dataclass
class ColoringEncoding:
    """A formula encoding K-colorability of a graph, plus the var maps.

    ``x_var[(v, k)]`` is the indicator for vertex ``v`` (0-based) having
    color ``k`` (1-based); ``y_var[k]`` the color-usage indicator.
    """

    graph: Graph
    num_colors: int
    formula: Formula
    x_var: Dict[tuple, int] = field(default_factory=dict)
    y_var: Dict[int, int] = field(default_factory=dict)

    def x(self, vertex: int, color: int) -> int:
        """Indicator variable of (vertex, color); colors are 1..K."""
        return self.x_var[(vertex, color)]

    def y(self, color: int) -> int:
        """Usage variable of a color."""
        return self.y_var[color]

    def copy(self) -> "ColoringEncoding":
        """Copy with an independent formula (constraints may be appended)."""
        return ColoringEncoding(
            graph=self.graph,
            num_colors=self.num_colors,
            formula=self.formula.copy(),
            x_var=dict(self.x_var),
            y_var=dict(self.y_var),
        )


def encode_coloring(graph: Graph, num_colors: int) -> ColoringEncoding:
    """Build the paper's 0-1 ILP encoding of K-coloring."""
    if num_colors <= 0:
        raise ValueError("need at least one color")
    formula = Formula()
    encoding = ColoringEncoding(graph=graph, num_colors=num_colors, formula=formula)
    n = graph.num_vertices
    colors = range(1, num_colors + 1)

    for v in range(n):
        for k in colors:
            encoding.x_var[(v, k)] = formula.new_var(("x", v, k))
    for k in colors:
        encoding.y_var[k] = formula.new_var(("y", k))
    # xs[v][k - 1] is x(v, k).
    xs = [[encoding.x_var[(v, k)] for k in colors] for v in range(n)]
    add_clause = formula.add_clause

    # Each vertex gets exactly one color (one PB constraint per vertex).
    for v in range(n):
        formula.add_exactly_one(xs[v])
    # Adjacent vertices differ (K binary clauses per edge).
    for a, b in graph.edges():
        for xa, xb in zip(xs[a], xs[b]):
            add_clause([-xa, -xb])
    # y_k <-> OR_v x[v][k]: n*K clauses for <-, K long clauses for ->.
    for k in colors:
        yk = encoding.y(k)
        for v in range(n):
            add_clause([-xs[v][k - 1], yk])
        add_clause([-yk] + [xs[v][k - 1] for v in range(n)])
    formula.set_objective([(1, encoding.y(k)) for k in colors], sense="min")
    return encoding


def add_color_activation_literals(
    formula: Formula,
    x_var: Dict[tuple, int],
    num_vertices: int,
    num_colors: int,
) -> Dict[int, int]:
    """Add per-color activation (selector) literals for incremental K-search.

    For each color ``c`` a fresh variable ``a_c`` is introduced together
    with the guard clauses ``(~x[v][c] | a_c)`` for every vertex, so the
    single assumption ``-a_c`` switches off color ``c`` across the whole
    encoding: every clause group that mentions color ``c`` — the
    per-vertex exactly-one group, the per-edge conflict group, and the
    NU/SC symmetry-breaking groups — is neutralized through the forced
    ``~x[v][c]`` literals.  Encoding once at the upper bound and
    assuming ``[-a_{k+1}, ..., -a_ub]`` turns the whole chromatic-number
    descent into queries on one persistent solver.

    Returns ``{color: activation_var}``.
    """
    activators: Dict[int, int] = {}
    for c in range(1, num_colors + 1):
        activators[c] = formula.new_var(("act", c))
    for c in range(1, num_colors + 1):
        a_c = activators[c]
        for v in range(num_vertices):
            formula.add_clause([-x_var[(v, c)], a_c])
    return activators


def decode_coloring(
    encoding: ColoringEncoding, model: Dict[int, bool]
) -> Dict[int, int]:
    """Extract the vertex -> color map from a model.

    Raises ``ValueError`` if some vertex has no color set (which would
    indicate a solver bug — the exactly-one constraints forbid it).
    """
    coloring: Dict[int, int] = {}
    for v in range(encoding.graph.num_vertices):
        for k in range(1, encoding.num_colors + 1):
            if model[encoding.x(v, k)]:
                if v in coloring:
                    raise ValueError(f"vertex {v} has two colors in the model")
                coloring[v] = k
        if v not in coloring:
            raise ValueError(f"vertex {v} has no color in the model")
    return coloring


def used_colors(coloring: Dict[int, int]) -> int:
    """Number of distinct colors in a coloring."""
    return len(set(coloring.values()))


def normalize_coloring(coloring: Dict[int, int]) -> Dict[int, int]:
    """Rename colors to 1..m in first-use order (canonical form)."""
    rename: Dict[int, int] = {}
    out: Dict[int, int] = {}
    for v in sorted(coloring):
        c = coloring[v]
        if c not in rename:
            rename[c] = len(rename) + 1
        out[v] = rename[c]
    return out
