"""CNF clauses.

A clause is a disjunction of literals.  The class canonicalizes on
construction (sorted by variable, duplicate literals removed, ``x``
before ``-x`` in a tautology) so that structurally equal clauses
compare and hash equal — useful both for formula-level deduplication
and for tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .literals import check_literal, var_of


class Clause:
    """An immutable CNF clause (disjunction of literals)."""

    __slots__ = ("literals",)

    def __init__(self, literals: Iterable[int]):
        lits = tuple(literals)
        # Types are checked before dedup ({1, True} is {1}); check_literal names a bad one.
        if not {int}.issuperset(map(type, lits)) or 0 in lits:
            lits = tuple(map(check_literal, lits))
        # Descending first puts x before -x; the stable sort by variable
        # keeps that order.
        unique = sorted(set(lits), reverse=True)
        unique.sort(key=abs)
        self.literals: Tuple[int, ...] = tuple(unique)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self):
        return iter(self.literals)

    def __eq__(self, other) -> bool:
        return isinstance(other, Clause) and self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    def __repr__(self) -> str:
        return f"Clause({list(self.literals)})"

    @property
    def is_unit(self) -> bool:
        """True when the clause contains exactly one literal."""
        return len(self.literals) == 1

    @property
    def is_tautology(self) -> bool:
        """True when the clause contains a literal and its complement."""
        # The literals are distinct, so a repeated variable is x next to -x.
        return len(set(map(abs, self.literals))) < len(self.literals)

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate under a *total* assignment mapping var -> bool."""
        for lit in self.literals:
            value = assignment[var_of(lit)]
            if (lit > 0) == value:
                return True
        return False
