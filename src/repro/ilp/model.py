"""Conversion of a :class:`~repro.core.formula.Formula` to matrix form.

The generic ILP solver (the paper's CPLEX stand-in) works on the
standard algebraic representation ``A_ub x <= b_ub`` over 0-1 variables
rather than on watched clauses.  A literal ``v`` contributes ``x_v``; a
literal ``-v`` contributes ``1 - x_v`` (folded into the bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.formula import Formula


@dataclass
class ILPModel:
    """A 0-1 ILP in matrix form: minimize ``c x`` s.t. ``A x <= b``.

    ``objective_offset`` carries the constant produced by negative
    literals in the objective, so that reported values match
    :meth:`Formula.objective_value`.
    """

    num_vars: int
    a_ub: np.ndarray
    b_ub: np.ndarray
    c: np.ndarray
    objective_offset: int
    sense: str  # "min" or "max" of the *original* formula objective

    def row_count(self) -> int:
        return self.a_ub.shape[0]


def _accumulate(row: np.ndarray, coef: float, lit: int) -> float:
    """Add ``coef * lit`` to a row; returns the constant moved to the RHS."""
    if lit > 0:
        row[lit - 1] += coef
        return 0.0
    row[-lit - 1] -= coef
    return coef  # coef * (1 - x) leaves +coef as a constant


def formula_to_ilp(formula: Formula) -> ILPModel:
    """Build the matrix form of a formula (clauses, PB constraints, objective)."""
    n = formula.num_vars
    rows: List[np.ndarray] = []
    rhs: List[float] = []

    def add_le(terms: List[Tuple[int, int]], bound: float) -> None:
        row = np.zeros(n)
        constant = 0.0
        for coef, lit in terms:
            constant += _accumulate(row, coef, lit)
        rows.append(row)
        rhs.append(bound - constant)

    for clause in formula.clauses:
        # l1 + ... + lk >= 1  ==  -l1 - ... - lk <= -1
        add_le([(-1, l) for l in clause], -1.0)
    for pb in formula.pb_constraints:
        if pb.relation in ("<=", "="):
            add_le(list(pb.terms), float(pb.bound))
        if pb.relation in (">=", "="):
            add_le([(-c, l) for c, l in pb.terms], float(-pb.bound))

    c = np.zeros(n)
    offset = 0
    sense = formula.objective_sense
    sign = 1.0 if sense == "min" else -1.0
    for coef, lit in formula.objective or ():
        if lit > 0:
            c[lit - 1] += sign * coef
        else:
            c[-lit - 1] -= sign * coef
            offset += coef
    a_ub = np.vstack(rows) if rows else np.zeros((0, n))
    b_ub = np.asarray(rhs)
    return ILPModel(n, a_ub, b_ub, c, offset, sense)


def assignment_from_point(x: np.ndarray) -> dict:
    """Round an integral LP point to a variable assignment."""
    return {v + 1: bool(round(val)) for v, val in enumerate(x)}
