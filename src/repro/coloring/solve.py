"""Legacy exact-coloring entry points (deprecation shims over ``repro.api``).

``solve_coloring`` and ``find_chromatic_number`` were the repo's
original high-level API: one call running the paper's full pipeline —
kernelization, 0-1 ILP encoding, instance-independent SBPs, CNF
simplification, optional symmetry detection, and color minimization
with a named solver profile.  Over PRs 1–2 they accumulated 10+ kwargs
each; the pipeline now lives behind the composable public API in
:mod:`repro.api` (Problem value objects, a staged ``Pipeline`` builder,
a backend registry, and reusable ``Session`` objects).

Both functions remain as thin deprecation shims: they translate their
historical kwargs into a :class:`repro.api.PipelineConfig`, run the
problem through :class:`repro.api.Pipeline`, and repackage the
structured :class:`repro.api.Result` as the historical
:class:`ColoringSolveResult`.  New code should use ``repro.api``::

    from repro.api import BudgetedOptimize, ChromaticProblem, Pipeline

    pipe = Pipeline().symmetry(sbp_kind="nu+sc").solve(backend="pb-pbs2")
    result = pipe.run(BudgetedOptimize(graph, max_colors=7))
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional

from ..sat.preprocessing import SimplifyStats
from ..sat.result import OPTIMAL, UNSAT
from ..sbp.instance_independent import apply_sbp
from ..symmetry.detect import SymmetryReport
from .encoding import ColoringEncoding, encode_coloring

SOLVER_NAMES = ("pbs2", "galena", "pueblo", "cplex-bb")


@dataclass
class PipelineInfo:
    """What the simplification stages did during one solve."""

    preprocess: bool = False
    reduce: bool = False
    simplify: Optional[SimplifyStats] = None
    original_vertices: int = 0
    kernel_vertices: int = 0
    peeled_vertices: int = 0
    components_solved: int = 0


@dataclass
class ColoringSolveResult:
    """Everything a table row needs about one solve."""

    status: str  # OPTIMAL / SAT / UNSAT / UNKNOWN
    num_colors: Optional[int] = None
    coloring: Optional[Dict[int, int]] = None
    solve_seconds: float = 0.0
    encode_seconds: float = 0.0
    detection: Optional[SymmetryReport] = None
    solver: str = ""
    sbp_kind: str = "none"
    instance_dependent: bool = False
    pipeline: Optional[PipelineInfo] = None

    @property
    def solved(self) -> bool:
        """Definitive outcome (optimum proved or infeasibility proved)."""
        return self.status in (OPTIMAL, UNSAT)


def prepare_formula(
    graph,
    num_colors: int,
    sbp_kind: str = "none",
    instance_dependent: bool = False,
    detection_node_limit: Optional[int] = 50000,
    detection_cache: Optional[Dict] = None,
) -> "tuple[ColoringEncoding, Optional[SymmetryReport]]":
    """Encode + SBPs; returns the encoding and the detection report.

    The detection report is ``None`` unless instance-dependent SBPs were
    requested.  ``detection_cache`` (a plain dict, or a
    ``multiprocessing.Manager().dict()`` shared across batch workers)
    lets callers reuse detection results across solver runs on the same
    deterministic encoding — keys derive from the graph *as labeled* (a
    digest of its sorted edge list) plus the encoding parameters, so
    repeats of one labeled graph share one detection run; an isomorphic
    relabeling detects afresh, since the cached generators permute the
    labeling's own variables.

    This helper keeps the historical encode-then-detect order for
    callers that want the raw encoding; the standard pipeline
    (:mod:`repro.api`) detects on the *simplified* formula by default.
    """
    encoding = encode_coloring(graph, num_colors)
    encoding = apply_sbp(encoding, sbp_kind)
    report: Optional[SymmetryReport] = None
    if instance_dependent:
        from ..api.pipeline import _detect_and_break, _detection_key

        key = (
            _detection_key(graph, num_colors, sbp_kind, False,
                           detection_node_limit)
            if detection_cache is not None else None
        )
        report = _detect_and_break(
            encoding.formula, key, detection_node_limit, detection_cache
        )
    return encoding, report


def _legacy_pipeline(
    solver: str,
    sbp_kind: str,
    instance_dependent: bool,
    time_limit: Optional[float],
    conflict_limit: Optional[int],
    use_bounds: bool,
    detection_node_limit: Optional[int],
    preprocess: bool,
    reduce: bool,
    incremental: bool,
):
    """Translate the historical kwargs into an API pipeline."""
    from ..api import Pipeline

    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVER_NAMES}")
    return (
        Pipeline()
        .reduce(reduce)
        .symmetry(
            sbp_kind=sbp_kind,
            instance_dependent=instance_dependent,
            detection_node_limit=detection_node_limit,
        )
        .simplify(preprocess)
        .solve(
            backend=solver,
            time_limit=time_limit,
            conflict_limit=conflict_limit,
            incremental=incremental,
            use_bounds=use_bounds,
        )
    )


def _to_legacy_result(
    result,
    solver: str,
    sbp_kind: str,
    instance_dependent: bool,
) -> ColoringSolveResult:
    """Repackage an API :class:`repro.api.Result` in the historical shape."""
    return ColoringSolveResult(
        status=result.status,
        num_colors=result.num_colors,
        coloring=result.coloring,
        solve_seconds=result.solve_seconds,
        encode_seconds=result.encode_seconds,
        detection=result.detection,
        solver=solver,
        sbp_kind=sbp_kind,
        instance_dependent=instance_dependent,
        pipeline=result.pipeline,
    )


def solve_coloring(
    graph,
    num_colors: int,
    solver: str = "pbs2",
    sbp_kind: str = "none",
    instance_dependent: bool = False,
    time_limit: Optional[float] = None,
    conflict_limit: Optional[int] = None,
    use_bounds: bool = True,
    detection_node_limit: Optional[int] = 50000,
    detection_cache: Optional[Dict] = None,
    preprocess: bool = True,
    reduce: bool = False,
    incremental: bool = True,
) -> ColoringSolveResult:
    """Minimize the colors used on ``graph`` within a budget of ``num_colors``.

    .. deprecated::
        Use :class:`repro.api.Pipeline` with
        :class:`repro.api.BudgetedOptimize` — this shim delegates to it.

    Status is UNSAT when the graph is not ``num_colors``-colorable —
    the paper's "chromatic number > K" rows (a budget of zero is UNSAT
    for every non-empty graph).  ``preprocess`` simplifies the clause
    database after encoding; ``reduce`` kernelizes the graph (peeling +
    component split) before encoding.
    """
    warnings.warn(
        "solve_coloring is deprecated; use repro.api "
        "(Pipeline().run(BudgetedOptimize(graph, max_colors)))",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..api import BudgetedOptimize

    pipeline = _legacy_pipeline(
        solver, sbp_kind, instance_dependent, time_limit, conflict_limit,
        use_bounds, detection_node_limit, preprocess, reduce, incremental,
    )
    result = pipeline.run(
        BudgetedOptimize(graph, num_colors), detection_cache=detection_cache
    )
    return _to_legacy_result(result, solver, sbp_kind, instance_dependent)


def find_chromatic_number(
    graph,
    solver: str = "pbs2",
    sbp_kind: str = "nu",
    instance_dependent: bool = False,
    time_limit: Optional[float] = None,
    max_colors: Optional[int] = None,
    preprocess: bool = True,
    reduce: bool = True,
    incremental: bool = True,
) -> ColoringSolveResult:
    """Chromatic number via the 0-1 ILP pipeline (DSATUR-seeded budget).

    .. deprecated::
        Use :class:`repro.api.Pipeline` with
        :class:`repro.api.ChromaticProblem` — this shim delegates to it.

    ``max_colors`` caps the budget (the paper's application-driven fixed
    K).  A cap below the chromatic number makes the result UNSAT — in
    particular ``max_colors=0`` is infeasible for every non-empty graph,
    never silently clamped up to a 1-color solve.
    """
    warnings.warn(
        "find_chromatic_number is deprecated; use repro.api "
        "(Pipeline().run(ChromaticProblem(graph, max_colors)))",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..api import ChromaticProblem

    pipeline = _legacy_pipeline(
        solver, sbp_kind, instance_dependent, time_limit, None,
        True, 50000, preprocess, reduce, incremental,
    )
    result = pipeline.run(ChromaticProblem(graph, max_colors))
    return _to_legacy_result(result, solver, sbp_kind, instance_dependent)
