"""Exact graph coloring: encoding, solving, decoding and baselines."""

from .coudert import CoudertResult, coudert_chromatic_number
from .encoding import (
    ColoringEncoding,
    decode_coloring,
    encode_coloring,
    normalize_coloring,
    used_colors,
)
from .encoding import add_color_activation_literals
from .enumerate import count_colorings, distinct_colorings, enumerate_models
from .exact_dsatur import ExactColoringResult, exact_chromatic_number
from .mehrotra_trick import (
    MTResult,
    build_mt_formula,
    maximal_independent_sets,
    mt_chromatic_number,
)
from .necsp import (
    NECSPOptimum,
    NECSPResult,
    necsp_chromatic_number,
    solve_necsp,
)
from .reduce import (
    Kernel,
    extend_coloring,
    kernelize,
    lift,
    peel_low_degree,
)
from .sat_pipeline import (
    GROWABLE_SBP_KINDS,
    IncrementalKSearch,
    SatPipelineResult,
    chromatic_number_sat,
    encode_k_coloring_cnf,
    encode_k_coloring_growable,
    encode_k_coloring_incremental,
    sat_k_colorable,
)
from .solve import (
    ColoringSolveResult,
    PipelineInfo,
    SOLVER_NAMES,
    find_chromatic_number,
    prepare_formula,
    solve_coloring,
)
from .verify import check_proper, color_class_sizes, is_proper

__all__ = [
    "ColoringEncoding",
    "ColoringSolveResult",
    "CoudertResult",
    "ExactColoringResult",
    "IncrementalKSearch",
    "Kernel",
    "MTResult",
    "PipelineInfo",
    "count_colorings",
    "distinct_colorings",
    "enumerate_models",
    "extend_coloring",
    "kernelize",
    "lift",
    "peel_low_degree",
    "NECSPOptimum",
    "NECSPResult",
    "SOLVER_NAMES",
    "SatPipelineResult",
    "build_mt_formula",
    "chromatic_number_sat",
    "coudert_chromatic_number",
    "encode_k_coloring_cnf",
    "encode_k_coloring_growable",
    "GROWABLE_SBP_KINDS",
    "maximal_independent_sets",
    "mt_chromatic_number",
    "necsp_chromatic_number",
    "sat_k_colorable",
    "solve_necsp",
    "add_color_activation_literals",
    "check_proper",
    "color_class_sizes",
    "decode_coloring",
    "encode_coloring",
    "encode_k_coloring_incremental",
    "exact_chromatic_number",
    "find_chromatic_number",
    "is_proper",
    "normalize_coloring",
    "prepare_formula",
    "solve_coloring",
    "used_colors",
]
