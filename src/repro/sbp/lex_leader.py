"""Instance-dependent symmetry-breaking predicates (the Shatter stand-in).

Implements the efficient, tautology-free, linear-size lex-leader
construction of Aloul, Markov & Sakallah (DAC 2003 / IJCAI 2003): for
each symmetry generator ``pi`` (a permutation of literals), add clauses
asserting that the current assignment is lexicographically no larger
than its image under ``pi``, considering variables in index order.

For support variables ``x_1 < x_2 < ... < x_k`` with image literals
``y_j = pi(x_j)``, the predicate is::

    AND_j  [ (x_1 = y_1) & ... & (x_{j-1} = y_{j-1}) ]  ->  (x_j <= y_j)

encoded with chaining variables ``p_j`` ("prefix equal through j"):

    p_0 = true
    p_{j-1} -> (x_j <= y_j)                     1 ternary clause
    p_{j-1} & (x_j = y_j) -> p_j                2 quaternary clauses

Only breaking generators (not the whole group) is *incomplete* but
sound, and is the configuration the paper uses.  A per-generator
support cap keeps predicates small, which the 2003/2004 papers found
essential; truncating the conjunction keeps a (weaker) sound predicate
because the lex-smallest member of every orbit satisfies each conjunct
individually.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.formula import Formula
from ..core.literals import index_lit, lit_index
from ..symmetry.permutation import Permutation

DEFAULT_SUPPORT_CAP = 64


def _image_literal(perm: Permutation, lit: int) -> int:
    """Image of a DIMACS literal under a literal-index permutation."""
    return index_lit(perm(lit_index(lit)))


def generator_support_vars(perm: Permutation) -> List[int]:
    """Variables whose positive literal is moved by the generator."""
    out = []
    for idx in range(0, perm.degree, 2):
        if perm(idx) != idx:
            out.append(idx // 2 + 1)
    return out


def add_lex_leader_sbp(
    formula: Formula,
    generator: Permutation,
    support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
) -> int:
    """Append the lex-leader SBP for one generator; returns #clauses added.

    The generator permutes literal indices (degree ``2 * num_vars`` or
    less; smaller degrees are interpreted over the first variables).
    """
    if generator.degree > 2 * formula.num_vars:
        raise ValueError("generator degree exceeds the formula's literals")
    support = generator_support_vars(generator)
    if support_cap is not None:
        support = support[:support_cap]
    added = 0
    prev_p: Optional[int] = None
    for j, var in enumerate(support):
        y = _image_literal(generator, var)
        if y == var:
            continue
        # x_j <= y_j under the prefix condition.
        clause = [-var, y] if y != -var else [-var]
        if prev_p is not None:
            clause = [-prev_p] + clause
        formula.add_clause(clause)
        added += 1
        if j == len(support) - 1:
            break  # last chain variable is never used
        if y == -var:
            # Phase-shift image: x_j = y_j is unsatisfiable, so the
            # prefix-equal chain dies here; later conjuncts are vacuous.
            break
        p_j = formula.new_var()
        # p_{j-1} & (x_j = y_j) -> p_j, split over the two equal cases:
        eq_true = [-var, -y, p_j]  # both true:  x &  y -> p
        eq_false = [var, y, p_j]  # both false: ~x & ~y -> p
        clause_t = eq_true if prev_p is None else [-prev_p] + eq_true
        clause_f = eq_false if prev_p is None else [-prev_p] + eq_false
        formula.add_clause(clause_t)
        formula.add_clause(clause_f)
        added += 2
        prev_p = p_j
    return added


def add_symmetry_breaking_predicates(
    formula: Formula,
    generators: Sequence[Permutation],
    support_cap: Optional[int] = DEFAULT_SUPPORT_CAP,
) -> int:
    """Append lex-leader SBPs for every generator; returns #clauses added."""
    total = 0
    for generator in generators:
        total += add_lex_leader_sbp(formula, generator, support_cap=support_cap)
    return total

