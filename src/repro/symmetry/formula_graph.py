"""CNF/PB formula -> colored graph, for symmetry detection.

This is detection's general route.  A coloring formula whose layout
is known goes first through :mod:`.lifted`, which lifts Aut(G) × S_K
from the n-vertex graph; the formula graph is searched when no layout
is given or a lifted permutation fails verification (as under the
instance-independent SBP kinds).

Follows the construction of Aloul, Ramani, Markov & Sakallah (TCAD
2003, ASP-DAC 2004) with one safety refinement.  Vertices:

* one vertex per **literal** (positive and negative share a color, so
  phase-shift symmetries remain detectable);
* one vertex per **variable**, linked to its two literals.  The paper
  instead links the two literals directly and represents binary clauses
  the same way, accepting rare spurious symmetries from "circular
  implication chains"; the explicit variable vertex keeps Boolean
  consistency edges distinguishable from binary-clause edges, so *no*
  spurious symmetries arise (a sound strengthening — detected
  symmetries are exactly formula symmetries);
* one vertex per CNF clause of length >= 3, linked to its literals
  (binary clauses stay plain literal-literal edges, as in the paper);
* one vertex per PB constraint, colored by the constraint's *signature*
  (coefficient multiset, relation, bound), with per-coefficient-value
  "weight" vertices linking the constraint to its literals — literals
  with different coefficients must not be interchanged;
* one vertex for the objective (if any), treated like a PB constraint.

Any automorphism of this colored graph restricted to literal vertices
is a symmetry of the formula; variable vertices map consistently
because they are the unique common neighbors of literal pairs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.formula import Formula
from ..core.literals import lit_index
from ..graphs.graph import Graph
from .permutation import Permutation

# Color classes (small ints; PB signature classes are appended after).
COLOR_LITERAL = 0
COLOR_VARIABLE = 1
COLOR_CLAUSE = 2
_FIRST_DYNAMIC_COLOR = 3


@dataclass
class FormulaGraph:
    """The colored graph of a formula plus the vertex bookkeeping."""

    graph: Graph
    colors: List[int]
    num_literal_vertices: int  # literal vertices are 0 .. this-1


def build_formula_graph(formula: Formula) -> FormulaGraph:
    """Construct the colored symmetry graph of a formula."""
    n = formula.num_vars
    graph = Graph(2 * n + n)  # literals then variable vertices
    colors: List[int] = [COLOR_LITERAL] * (2 * n) + [COLOR_VARIABLE] * n

    def var_vertex(var: int) -> int:
        return 2 * n + (var - 1)

    for var in range(1, n + 1):
        graph.add_edge(lit_index(var), var_vertex(var))
        graph.add_edge(lit_index(-var), var_vertex(var))

    for lits in formula.clauses:
        if len(lits) == 1:
            # Unit clauses pin their literal: give it a unique-ish color
            # by hanging a clause vertex off it (keeps construction
            # uniform and prevents the literal from being mapped away).
            cv = graph.add_vertex()
            colors.append(COLOR_CLAUSE)
            graph.add_edge(cv, lit_index(lits[0]))
        elif len(lits) == 2:
            graph.add_edge(lit_index(lits[0]), lit_index(lits[1]))
        else:
            cv = graph.add_vertex()
            colors.append(COLOR_CLAUSE)
            for lit in lits:
                graph.add_edge(cv, lit_index(lit))

    # PB constraints: one color class per signature.
    signature_color: Dict[Tuple, int] = {}
    weight_color: Dict[Tuple, int] = {}
    next_color = _FIRST_DYNAMIC_COLOR

    def color_for(table: Dict[Tuple, int], key: Tuple) -> int:
        nonlocal next_color
        if key not in table:
            table[key] = next_color
            next_color += 1
        return table[key]

    def add_weighted_node(terms, signature_key: Tuple) -> None:
        cv = graph.add_vertex()
        colors.append(color_for(signature_color, signature_key))
        by_coef: Dict[int, List[int]] = defaultdict(list)
        for coef, lit in terms:
            by_coef[coef].append(lit)
        for coef, lits in sorted(by_coef.items()):
            if len(by_coef) == 1:
                # Uniform coefficients: link literals directly.
                for lit in lits:
                    graph.add_edge(cv, lit_index(lit))
            else:
                wv = graph.add_vertex()
                colors.append(color_for(weight_color, ("w", coef)))
                graph.add_edge(cv, wv)
                for lit in lits:
                    graph.add_edge(wv, lit_index(lit))

    for pb in formula.pb_constraints:
        signature = (
            "pb",
            pb.relation,
            pb.bound,
            tuple(sorted(c for c, _ in pb.terms)),
        )
        add_weighted_node(pb.terms, signature)

    if formula.objective is not None and formula.objective:
        signature = (
            "obj",
            formula.objective_sense,
            tuple(sorted(c for c, _ in formula.objective)),
        )
        add_weighted_node(formula.objective, signature)

    return FormulaGraph(graph=graph, colors=colors, num_literal_vertices=2 * n)


def graph_perm_to_formula_perm(
    fgraph: FormulaGraph, perm: Permutation
) -> Permutation:
    """Restrict a formula-graph automorphism to the literal vertices.

    Returns a permutation over literal indices (degree ``2 * num_vars``).
    Raises ``ValueError`` if the automorphism maps a literal vertex
    outside the literal block (cannot happen for color-preserving
    automorphisms; kept as a guard).
    """
    m = fgraph.num_literal_vertices
    image = list(perm.image[:m])
    if any(v >= m for v in image):
        raise ValueError("automorphism does not preserve the literal block")
    return Permutation(image)


def formula_perm_is_consistent(perm: Permutation) -> bool:
    """Check Boolean consistency: complements map to complements."""
    m = perm.degree
    for idx in range(0, m, 2):
        pos_img = perm(idx)
        neg_img = perm(idx + 1)
        if pos_img ^ 1 != neg_img:
            return False
    return True
