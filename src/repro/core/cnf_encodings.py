"""The CNF at-most-one encoding of the pure-CNF coloring layout.

Section 2.3 of the paper weighs CNF against PB: a PB counting
constraint stands for many clauses.  The repeated-SAT route (Sections
2.3 and 4.1) runs on the clause-only CDCL solver, so its K-coloring
layout (``coloring.sat_pipeline._lay_out``) writes each vertex's
exactly-one row as one at-least-one clause plus the pairwise
at-most-one clauses built here: O(n^2) binary clauses, no auxiliary
variables.
"""

from __future__ import annotations

from typing import Sequence

from .formula import Formula


def encode_at_most_one_pairwise(formula: Formula, lits: Sequence[int]) -> int:
    """At-most-one via pairwise conflicts; returns #clauses added."""
    pairs = [(-a, -b) for i, a in enumerate(lits) for b in lits[i + 1 :]]
    formula.add_clauses(pairs)
    return len(pairs)
