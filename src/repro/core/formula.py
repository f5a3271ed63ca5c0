"""Mixed CNF + PB formulas with an optional linear objective.

This is the exchange format of the whole library: the coloring encoder
produces a :class:`Formula`, SBP constructions append constraints to it,
the symmetry detector reads it, and every solver consumes it.  The
container mirrors the input language of the paper's 0-1 ILP solvers
(PBS/Galena/Pueblo): a conjunction of CNF clauses and PB constraints
plus a linear objective to minimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .literals import check_literal, var_of
from .pbconstraint import PBConstraint, at_least_k, at_most_k, exactly_one


@dataclass(frozen=True)
class FormulaStats:
    """Size statistics as reported in the paper's Table 2."""

    num_vars: int
    num_clauses: int
    num_pb: int

    def __add__(self, other: "FormulaStats") -> "FormulaStats":
        return FormulaStats(
            self.num_vars + other.num_vars,
            self.num_clauses + other.num_clauses,
            self.num_pb + other.num_pb,
        )


class Formula:
    """A 0-1 ILP instance: CNF clauses + PB constraints + linear objective.

    ``clauses`` holds each clause as the tuple :meth:`add_clause`
    returns; outside ``sat/`` that call is the only way in (rule RPR001).
    """

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise ValueError("a formula cannot start below 0 variables")
        #: Number of variables; ids run 1..num_vars.
        self.num_vars = num_vars
        self.clauses: List[Tuple[int, ...]] = []
        self.pb_constraints: List[PBConstraint] = []
        self.objective: Optional[Tuple[Tuple[int, int], ...]] = None
        self.objective_sense: str = "min"

    # ---------------------------------------------------------------- vars
    def new_var(self) -> int:
        """Allocate the next variable id (``num_vars + 1``) and return it."""
        self.num_vars += 1
        return self.num_vars

    def ensure_var(self, var: int) -> None:
        """Grow the variable range so that ``var`` is legal."""
        if var > self.num_vars:
            self.num_vars = var

    # ---------------------------------------------------------- constraints
    def add_clause(self, literals: Iterable[int]) -> Tuple[int, ...]:
        """Append a CNF clause; returns it in canonical form.

        The canonical form is a tuple of distinct literals sorted by
        variable, ``x`` before ``-x`` in a tautology, so every consumer
        (CDCL watches, subsumption, symmetry graphs, the writers) reads
        the same literals for the same clause.  A literal that is not a
        nonzero ``int`` raises ``ValueError`` naming it; the types are
        checked before duplicates collapse (``{1, True}`` is ``{1}``).
        The empty clause is refused.  Tautologies are legal input (they
        are satisfiable).
        """
        lits = tuple(literals)
        if not {int}.issuperset(map(type, lits)) or 0 in lits:
            lits = tuple(map(check_literal, lits))
        if not lits:
            raise ValueError("refusing to add the empty clause; formula would be trivially UNSAT")
        # Descending first puts x before -x; the stable sort by variable
        # keeps that order.
        unique = sorted(set(lits), reverse=True)
        unique.sort(key=abs)
        clause = tuple(unique)
        self.ensure_var(abs(clause[-1]))
        self.clauses.append(clause)
        return clause

    def add_pb(
        self, terms: Iterable[Tuple[int, int]], relation: str, bound: int
    ) -> PBConstraint:
        """Append a PB constraint ``sum(coef*lit) <relation> bound``."""
        constraint = PBConstraint(terms, relation, bound)
        self._grow_to(constraint.variables())
        self.pb_constraints.append(constraint)
        return constraint

    def add_exactly_one(self, lits: Sequence[int]) -> PBConstraint:
        """Append ``sum(lits) = 1`` (one PB constraint, as in the paper)."""
        constraint = exactly_one(lits)
        self._grow_to(constraint.variables())
        self.pb_constraints.append(constraint)
        return constraint

    def add_at_most(self, lits: Sequence[int], k: int) -> PBConstraint:
        """Append ``sum(lits) <= k``."""
        constraint = at_most_k(lits, k)
        self._grow_to(constraint.variables())
        self.pb_constraints.append(constraint)
        return constraint

    def add_at_least(self, lits: Sequence[int], k: int) -> PBConstraint:
        """Append ``sum(lits) >= k``."""
        constraint = at_least_k(lits, k)
        self._grow_to(constraint.variables())
        self.pb_constraints.append(constraint)
        return constraint

    def set_objective(self, terms: Iterable[Tuple[int, int]], sense: str = "min") -> None:
        """Set the linear objective ``sense sum(coef*lit)``."""
        if sense not in ("min", "max"):
            raise ValueError("objective sense must be 'min' or 'max'")
        self.objective = tuple((int(c), int(l)) for c, l in terms)
        self.objective_sense = sense
        self._grow_to([var_of(l) for _, l in self.objective])

    def _grow_to(self, variables: Iterable[int]) -> None:
        self.ensure_var(max(variables, default=0))

    # ------------------------------------------------------------ queries
    def stats(self) -> FormulaStats:
        """Size statistics (vars / CNF clauses / PB constraints)."""
        return FormulaStats(self.num_vars, len(self.clauses), len(self.pb_constraints))

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """True when the total assignment satisfies every constraint."""
        return all(
            any((lit > 0) == assignment[var_of(lit)] for lit in clause)
            for clause in self.clauses
        ) and all(p.evaluate(assignment) for p in self.pb_constraints)

    def objective_value(self, assignment: Dict[int, bool]) -> int:
        """Objective value under a total assignment (0 if no objective)."""
        if self.objective is None:
            return 0
        total = 0
        for coef, lit in self.objective:
            value = assignment[var_of(lit)]
            if (lit > 0) == value:
                total += coef
        return total

    def copy(self) -> "Formula":
        """Deep-enough copy: constraints are immutable, lists are fresh."""
        dup = Formula(num_vars=self.num_vars)
        dup.clauses = list(self.clauses)
        dup.pb_constraints = list(self.pb_constraints)
        dup.objective = self.objective
        dup.objective_sense = self.objective_sense
        return dup

    def __repr__(self) -> str:
        s = self.stats()
        obj = "" if self.objective is None else f", objective[{len(self.objective)} terms]"
        return f"Formula(vars={s.num_vars}, clauses={s.num_clauses}, pb={s.num_pb}{obj})"
