"""Pseudo-Boolean (0-1 ILP) constraints and their normal form.

A pseudo-Boolean constraint is a linear inequality over literals with
integer coefficients.  Following the paper (Section 2.3), any PB
constraint can be rewritten in *normalized form* — all coefficients
positive, relation ``>=`` — using ``-a*l == -a + a*(~l)``.  Solvers in
:mod:`repro.pb` operate exclusively on the normalized form
(:class:`LinearGE`); the user-facing :class:`PBConstraint` preserves the
constraint as written (including ``=`` and ``<=``) for readable
formulas, I/O and statistics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .literals import check_literal, var_of

RELATIONS = (">=", "<=", "=")


class LinearGE:
    """A normalized PB constraint ``sum(coef_i * lit_i) >= degree``.

    Invariants: every coefficient is positive, every literal appears at
    most once and never together with its complement, coefficients are
    saturated at the degree (a coefficient larger than the degree is
    equivalent to the degree).  ``degree <= 0`` means a tautology.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms: Iterable[Tuple[int, int]], degree: int):
        self.terms: Tuple[Tuple[int, int], ...] = tuple(terms)
        self.degree: int = degree
        for coef, lit in self.terms:
            if coef <= 0:
                raise ValueError(f"normalized constraint has coef {coef} <= 0")
            check_literal(lit)

    def __repr__(self) -> str:
        lhs = " + ".join(f"{c}*{l}" for c, l in self.terms)
        return f"LinearGE({lhs or '0'} >= {self.degree})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearGE)
            and self.degree == other.degree
            and sorted(self.terms) == sorted(other.terms)
        )

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.terms)), self.degree))

    @property
    def is_tautology(self) -> bool:
        """True when satisfied by every assignment."""
        return self.degree <= 0

    @property
    def is_unsatisfiable(self) -> bool:
        """True when no assignment can reach the degree."""
        return sum(c for c, _ in self.terms) < self.degree

    @property
    def is_cardinality(self) -> bool:
        """True when all coefficients are 1 (an at-least-k constraint)."""
        return all(c == 1 for c, _ in self.terms)

    @property
    def is_clause(self) -> bool:
        """True when equivalent to a single CNF clause."""
        return self.degree == 1 and self.is_cardinality

    def literals(self) -> List[int]:
        """The literals of the constraint, in term order."""
        return [l for _, l in self.terms]

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate under a total assignment mapping var -> bool."""
        total = 0
        for coef, lit in self.terms:
            value = assignment[var_of(lit)]
            if (lit > 0) == value:
                total += coef
        return total >= self.degree


def normalize_terms(
    terms: Iterable[Tuple[int, int]], bound: int
) -> Tuple[List[Tuple[int, int]], int]:
    """Normalize ``sum(coef*lit) >= bound`` to positive, merged coefficients.

    Returns ``(terms, degree)``.  Handles negative coefficients, repeated
    literals and complementary literal pairs; drops zero coefficients.
    """
    by_var: Dict[int, int] = {}
    degree = bound
    for coef, lit in terms:
        check_literal(lit)
        if coef == 0:
            continue
        var = var_of(lit)
        # Express everything on the positive literal: a*(~v) == a - a*v.
        if lit < 0:
            degree -= coef
            coef = -coef
        by_var[var] = by_var.get(var, 0) + coef
    out: List[Tuple[int, int]] = []
    for var, coef in sorted(by_var.items()):
        if coef == 0:
            continue
        if coef > 0:
            out.append((coef, var))
        else:
            # Back onto the negative literal to restore positivity.
            degree -= coef
            out.append((-coef, -var))
    if degree > 0:
        # Saturation: any coefficient above the degree acts like the degree.
        out = [(min(c, degree), l) for c, l in out]
    return out, degree


class PBConstraint:
    """A user-facing PB constraint ``sum(coef_i * lit_i) <relation> bound``."""

    __slots__ = ("terms", "relation", "bound")

    def __init__(self, terms: Iterable[Tuple[int, int]], relation: str, bound: int):
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
        self.terms: Tuple[Tuple[int, int], ...] = tuple((int(c), check_literal(l)) for c, l in terms)
        self.relation = relation
        self.bound = int(bound)

    def __repr__(self) -> str:
        lhs = " + ".join(f"{c}*{l}" for c, l in self.terms)
        return f"PBConstraint({lhs or '0'} {self.relation} {self.bound})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PBConstraint)
            and self.relation == other.relation
            and self.bound == other.bound
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.terms, self.relation, self.bound))

    def variables(self) -> Tuple[int, ...]:
        """Variables mentioned by the constraint, ascending."""
        return tuple(sorted({var_of(l) for _, l in self.terms}))

    def to_geq(self) -> List[LinearGE]:
        """Normalized ``>=`` constraints equivalent to this constraint.

        ``>=`` and ``<=`` produce one constraint, ``=`` produces two.
        """
        out: List[LinearGE] = []
        if self.relation in (">=", "="):
            t, d = normalize_terms(self.terms, self.bound)
            out.append(LinearGE(t, d))
        if self.relation in ("<=", "="):
            flipped = [(-c, l) for c, l in self.terms]
            t, d = normalize_terms(flipped, -self.bound)
            out.append(LinearGE(t, d))
        return out

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate under a total assignment mapping var -> bool."""
        total = 0
        for coef, lit in self.terms:
            value = assignment[var_of(lit)]
            if (lit > 0) == value:
                total += coef
        if self.relation == ">=":
            return total >= self.bound
        if self.relation == "<=":
            return total <= self.bound
        return total == self.bound


def exactly_one(lits: Sequence[int]) -> PBConstraint:
    """The ``sum(lits) = 1`` constraint used per vertex by the encoding."""
    return PBConstraint([(1, l) for l in lits], "=", 1)


def at_most_k(lits: Sequence[int], k: int) -> PBConstraint:
    """``sum(lits) <= k``."""
    return PBConstraint([(1, l) for l in lits], "<=", k)


def at_least_k(lits: Sequence[int], k: int) -> PBConstraint:
    """``sum(lits) >= k``."""
    return PBConstraint([(1, l) for l in lits], ">=", k)
