"""Formula core: literals, clauses, PB constraints, formulas and I/O."""

from .cnf_encodings import encode_at_most_one_pairwise
from .formula import Formula, FormulaStats
from .io_opb import (
    formula_to_string,
    read_dimacs_cnf,
    read_opb,
    write_dimacs_cnf,
    write_opb,
)
from .literals import (
    check_literal,
    index_lit,
    lit_index,
    var_of,
)
from .pbconstraint import (
    LinearGE,
    PBConstraint,
    at_least_k,
    at_most_k,
    exactly_one,
    normalize_terms,
)

__all__ = [
    "Formula",
    "FormulaStats",
    "LinearGE",
    "PBConstraint",
    "at_least_k",
    "at_most_k",
    "check_literal",
    "encode_at_most_one_pairwise",
    "exactly_one",
    "formula_to_string",
    "index_lit",
    "lit_index",
    "normalize_terms",
    "read_dimacs_cnf",
    "read_opb",
    "var_of",
    "write_dimacs_cnf",
    "write_opb",
]
