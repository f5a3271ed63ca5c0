"""Serialization: DIMACS CNF and OPB (pseudo-Boolean) formats.

DIMACS CNF is the interchange format of SAT solvers; OPB is the format
used by pseudo-Boolean evaluation and by the solvers the paper builds on
(PBS/Galena/Pueblo all read OPB-like input).  Round-tripping through
these writers is exercised by the test suite and lets formulas produced
by this library be fed to external solvers, and vice versa.
"""

from __future__ import annotations

import io
from typing import List, TextIO, Tuple, Union

from .formula import Formula

PathOrFile = Union[str, TextIO]


def _open_for(target: PathOrFile, mode: str):
    if isinstance(target, (str, bytes)):
        return open(target, mode), True
    return target, False


# --------------------------------------------------------------- DIMACS CNF
def write_dimacs_cnf(formula: Formula, target: PathOrFile) -> None:
    """Write a CNF-only formula in DIMACS format.

    Raises ``ValueError`` if the formula has PB constraints or an
    objective — those cannot be represented in DIMACS CNF.
    """
    if formula.pb_constraints:
        raise ValueError("formula has PB constraints; use write_opb instead")
    if formula.objective is not None:
        raise ValueError("formula has an objective; use write_opb instead")
    handle, owned = _open_for(target, "w")
    try:
        handle.write(f"p cnf {formula.num_vars} {len(formula.clauses)}\n")
        for clause in formula.clauses:
            handle.write(" ".join(str(l) for l in clause) + " 0\n")
    finally:
        if owned:
            handle.close()


def read_dimacs_cnf(source: PathOrFile) -> Formula:
    """Parse a DIMACS CNF file into a :class:`Formula`."""
    handle, owned = _open_for(source, "r")
    try:
        formula: Formula = Formula()
        declared_vars = 0
        pending: List[int] = []
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith(("c", "%")):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) < 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed DIMACS problem line: {line!r}")
                declared_vars = int(parts[2])
                continue
            for token in line.split():
                lit = int(token)
                if lit == 0:
                    formula.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if pending:
            formula.add_clause(pending)
        formula.ensure_var(declared_vars)
        return formula
    finally:
        if owned:
            handle.close()


# --------------------------------------------------------------------- OPB
def _opb_term(coef: int, lit: int) -> str:
    if lit > 0:
        return f"{'+' if coef >= 0 else ''}{coef} x{lit}"
    return f"{'+' if coef >= 0 else ''}{coef} ~x{-lit}"


def write_opb(formula: Formula, target: PathOrFile) -> None:
    """Write a mixed CNF+PB formula (and objective) in OPB syntax.

    CNF clauses are written as cardinality constraints (``>= 1``), which
    is the standard lossless embedding of clauses in OPB.
    """
    handle, owned = _open_for(target, "w")
    try:
        total = len(formula.clauses) + len(formula.pb_constraints)
        handle.write(f"* #variable= {formula.num_vars} #constraint= {total}\n")
        if formula.objective is not None:
            sense = formula.objective_sense
            terms = " ".join(_opb_term(c, l) for c, l in formula.objective)
            handle.write(f"{sense}: {terms} ;\n")
        for pb in formula.pb_constraints:
            terms = " ".join(_opb_term(c, l) for c, l in pb.terms)
            handle.write(f"{terms} {pb.relation} {pb.bound} ;\n")
        for clause in formula.clauses:
            terms = " ".join(_opb_term(1, l) for l in clause)
            handle.write(f"{terms} >= 1 ;\n")
    finally:
        if owned:
            handle.close()


def _parse_opb_terms(tokens: List[str]) -> List[Tuple[int, int]]:
    terms: List[Tuple[int, int]] = []
    i = 0
    while i < len(tokens):
        coef = int(tokens[i])
        name = tokens[i + 1]
        if name.startswith("~x"):
            lit = -int(name[2:])
        elif name.startswith("x"):
            lit = int(name[1:])
        else:
            raise ValueError(f"malformed OPB variable token: {name!r}")
        terms.append((coef, lit))
        i += 2
    return terms


def read_opb(source: PathOrFile) -> Formula:
    """Parse an OPB file into a :class:`Formula`.

    Cardinality ``>= 1`` constraints with unit coefficients are restored
    as CNF clauses (the inverse of :func:`write_opb`).
    """
    handle, owned = _open_for(source, "r")
    try:
        formula = Formula()
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("*"):
                continue
            line = line.rstrip(";").strip()
            if line.startswith(("min:", "max:")):
                sense = line[:3]
                terms = _parse_opb_terms(line[4:].split())
                formula.set_objective(terms, sense=sense)
                continue
            tokens = line.split()
            relation_at = next(i for i, t in enumerate(tokens) if t in (">=", "<=", "="))
            terms = _parse_opb_terms(tokens[:relation_at])
            relation = tokens[relation_at]
            bound = int(tokens[relation_at + 1])
            if relation == ">=" and bound == 1 and all(c == 1 for c, _ in terms):
                formula.add_clause([l for _, l in terms])
            else:
                formula.add_pb(terms, relation, bound)
        return formula
    finally:
        if owned:
            handle.close()


def formula_to_string(formula: Formula, fmt: str = "opb") -> str:
    """Render a formula to a string in ``"opb"`` or ``"cnf"`` format."""
    buffer = io.StringIO()
    if fmt == "opb":
        write_opb(formula, buffer)
    elif fmt == "cnf":
        write_dimacs_cnf(formula, buffer)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return buffer.getvalue()
