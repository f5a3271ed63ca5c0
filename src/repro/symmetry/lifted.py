"""Aut(G) × S_K lifted onto a coloring formula, then verified.

A K-coloring formula's color permutations are instance-independent and
known in advance: swapping colors k and k+1 everywhere (``x[v][k] ↔
x[v][k+1]`` for every vertex, with ``y_k ↔ y_{k+1}``) maps the paper's
encoding onto itself.  Only the graph's own automorphisms depend on the
instance, and a vertex permutation σ lifts to ``x[v][k] → x[σ(v)][k]``.
Together the K−1 adjacent transpositions and Aut(G)'s generators
generate Aut(G) × S_K, which on the plain encoding is the formula's
whole symmetry group — found from the n-vertex graph instead of the
formula graph with its thousands of vertices.

The formula handed to detection need not be the plain encoding
(instance-independent SBPs, simplification), so no lifted permutation
is trusted: :class:`FormulaIndex` checks each one against the
formula's clauses, PB constraints and objective, and
:func:`lift_coloring_symmetries` returns ``None`` as soon as one fails,
which sends the caller back to the formula-graph search.

This module reads the coloring structurally (:class:`ColoringLayout`),
so ``repro.symmetry`` does not import ``repro.coloring``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..core.formula import Formula
from ..core.literals import lit_index
from ..graphs.graph import Graph
from .automorphism import AutomorphismResult, find_automorphisms
from .permutation import Permutation


class ColoringLayout(Protocol):
    """The variable layout of a K-coloring formula.

    Any object with these attributes qualifies, for example
    :class:`repro.coloring.encoding.ColoringEncoding`.
    """

    @property
    def graph(self) -> Graph:
        """The colored graph, vertices ``0..n-1``."""

    @property
    def num_colors(self) -> int:
        """K, the color budget; colors are ``1..K``."""

    @property
    def x_var(self) -> Mapping[Tuple[int, int], int]:
        """``x_var[(v, k)]``: the variable of vertex ``v`` having color ``k``."""

    @property
    def y_var(self) -> Mapping[int, int]:
        """``y_var[k]``: the variable of color ``k`` being used."""


def _pb_key(relation: str, bound: int, terms) -> Tuple:
    return (relation, bound, tuple(sorted(terms)))


class FormulaIndex:
    """A formula's constraints as sets, with per-variable occurrences.

    Built once per detection call; :meth:`is_symmetry` then checks a
    variable permutation by mapping only the clauses and PB constraints
    that mention a moved variable, and the objective as a multiset.
    """

    def __init__(self, formula: Formula) -> None:
        self.num_vars = formula.num_vars
        self.clauses: List[Tuple[int, ...]] = formula.clauses
        self.clause_set: FrozenSet[FrozenSet[int]] = frozenset(
            frozenset(lits) for lits in self.clauses)
        self.pbs = list(formula.pb_constraints)
        self.pb_set = frozenset(
            _pb_key(pb.relation, pb.bound, pb.terms) for pb in self.pbs)
        self.objective = formula.objective or ()
        self.clause_occ: Dict[int, List[int]] = defaultdict(list)
        for index, lits in enumerate(self.clauses):
            for lit in lits:
                self.clause_occ[abs(lit)].append(index)
        self.pb_occ: Dict[int, List[int]] = defaultdict(list)
        for index, pb in enumerate(self.pbs):
            for _, lit in pb.terms:
                self.pb_occ[abs(lit)].append(index)

    def is_symmetry(self, image: Sequence[int]) -> bool:
        """True when the variable map ``image`` (``image[v]`` for
        ``v`` in ``1..num_vars``; entry 0 unused) maps every clause, PB
        constraint and the objective onto the formula."""

        def mapped_lit(lit: int) -> int:
            return image[lit] if lit > 0 else -image[-lit]

        moved = [v for v in range(1, self.num_vars + 1) if image[v] != v]
        seen_clauses: set = set()
        seen_pbs: set = set()
        for var in moved:
            for index in self.clause_occ.get(var, ()):
                if index in seen_clauses:
                    continue
                seen_clauses.add(index)
                mapped = frozenset(mapped_lit(l) for l in self.clauses[index])
                if mapped not in self.clause_set:
                    return False
            for index in self.pb_occ.get(var, ()):
                if index in seen_pbs:
                    continue
                seen_pbs.add(index)
                pb = self.pbs[index]
                mapped_terms = [(c, mapped_lit(l)) for c, l in pb.terms]
                if _pb_key(pb.relation, pb.bound, mapped_terms) not in self.pb_set:
                    return False
        return Counter(self.objective) == Counter(
            (c, mapped_lit(l)) for c, l in self.objective)


def _literal_permutation(image: Sequence[int]) -> Permutation:
    """The literal-index permutation (degree ``2 * num_vars``) of a
    variable map."""
    lits = [0] * (2 * (len(image) - 1))
    for var in range(1, len(image)):
        lits[lit_index(var)] = lit_index(image[var])
        lits[lit_index(-var)] = lit_index(-image[var])
    return Permutation(lits)


def lift_coloring_symmetries(
    formula: Formula,
    coloring: ColoringLayout,
    node_limit: Optional[int] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Optional[Tuple[List[Permutation], AutomorphismResult]]:
    """Lift S_K and Aut(G) onto ``formula`` and verify every generator.

    Returns the literal permutations (the K−1 adjacent color
    transpositions, then one per Aut(G) generator) together with the
    graph search that found Aut(G), or ``None`` when a lifted
    permutation is not a symmetry of ``formula``.  The transpositions
    are checked before the graph search runs, so a formula whose SBPs
    break color symmetry costs one check.  ``node_limit`` and
    ``should_stop`` bound the graph search; a cut search still yields
    verified generators, with ``complete=False``.
    """
    index = FormulaIndex(formula)
    x, y = coloring.x_var, coloring.y_var
    n, k_max = coloring.graph.num_vertices, coloring.num_colors
    identity = list(range(formula.num_vars + 1))
    images: List[List[int]] = []
    for k in range(1, k_max):
        image = list(identity)
        pairs = [(x[(v, k)], x[(v, k + 1)]) for v in range(n)]
        for a, b in pairs + [(y[k], y[k + 1])]:
            image[a], image[b] = b, a
        if not index.is_symmetry(image):
            return None
        images.append(image)
    search = find_automorphisms(
        coloring.graph, node_limit=node_limit, should_stop=should_stop)
    for sigma in search.generators:
        image = list(identity)
        for v in range(n):
            for k in range(1, k_max + 1):
                image[x[(v, k)]] = x[(sigma(v), k)]
        if not index.is_symmetry(image):
            return None
        images.append(image)
    return [_literal_permutation(image) for image in images], search
