"""Symmetry-breaking predicates: instance-dependent lex-leader (Shatter
stand-in) and the paper's instance-independent NU/CA/LI/SC constructions."""

from .instance_independent import (
    SBP_KINDS,
    add_cardinality_ordering,
    add_lowest_index_ordering,
    add_null_color_elimination,
    add_selective_coloring,
    apply_sbp,
)
from .lex_leader import (
    DEFAULT_SUPPORT_CAP,
    add_lex_leader_sbp,
    add_symmetry_breaking_predicates,
    generator_support_vars,
)

__all__ = [
    "DEFAULT_SUPPORT_CAP",
    "SBP_KINDS",
    "add_cardinality_ordering",
    "add_lex_leader_sbp",
    "add_lowest_index_ordering",
    "add_null_color_elimination",
    "add_selective_coloring",
    "add_symmetry_breaking_predicates",
    "apply_sbp",
    "generator_support_vars",
]
