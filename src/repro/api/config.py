"""Pipeline configuration: one dataclass per stage, validated eagerly.

The old entry points took 10+ loosely-typed kwargs and surfaced a bad
solver or SBP name as a ``KeyError`` deep inside the preset tables.
Here every stage of the pipeline — reduce, encode, sbp, simplify,
detect, solve — has its own small config dataclass, and every name is
checked at *construction* time with a ``ValueError`` naming the
registered choices.

The stage order itself is explicit and reorderable: the default runs
symmetry detection *after* clause simplification (the cheaper order —
detection canonicalizes the smaller formula), while
``("reduce", "encode", "sbp", "detect", "simplify", "solve")`` restores
the historical Shatter flow.  ``reduce``/``encode`` must stay first
(they produce the graph kernel and the formula the later stages
transform) and ``solve`` last; the middle stages permute freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ..sbp.instance_independent import SBP_KINDS

AMO_ENCODINGS = ("pairwise", "sequential")
SEARCH_STRATEGIES = ("linear", "binary")

STAGES = ("reduce", "encode", "sbp", "simplify", "detect", "solve")
DEFAULT_STAGE_ORDER: Tuple[str, ...] = STAGES
SHATTER_STAGE_ORDER: Tuple[str, ...] = (
    "reduce", "encode", "sbp", "detect", "simplify", "solve",
)


def _check_choice(value: str, choices: Sequence[str], what: str) -> None:
    if value not in choices:
        raise ValueError(
            f"unknown {what} {value!r}; registered choices: {tuple(choices)}"
        )


@dataclass(frozen=True)
class ReduceConfig:
    """Graph kernelization before encoding: low-degree peeling at the
    clique bound plus connected-component splitting."""

    enabled: bool = True


@dataclass(frozen=True)
class EncodeConfig:
    """How constraints are compiled.  ``amo`` selects the at-most-one
    encoding on the pure-CNF route (the 0-1 ILP route uses native
    exactly-one PB constraints and ignores it)."""

    amo: str = "pairwise"

    def __post_init__(self) -> None:
        _check_choice(self.amo, AMO_ENCODINGS, "at-most-one encoding")


@dataclass(frozen=True)
class SymmetryConfig:
    """Symmetry breaking: the paper's instance-independent constructions
    (``sbp_kind``) and optional instance-dependent detection + lex-leader
    predicates (``instance_dependent``)."""

    sbp_kind: str = "none"
    instance_dependent: bool = False
    detection_node_limit: Optional[int] = 50000

    def __post_init__(self) -> None:
        _check_choice(self.sbp_kind, SBP_KINDS, "SBP kind")


@dataclass(frozen=True)
class SimplifyConfig:
    """Model-preserving clause-database simplification after encoding."""

    enabled: bool = True


#: Default racer line-up of the ``portfolio`` backend: one persistent
#: CDCL descent, one PB optimizer, one problem-specific branch and bound.
DEFAULT_RACERS: Tuple[str, ...] = (
    "cdcl-incremental", "pb-pueblo", "exact-dsatur",
)


@dataclass(frozen=True)
class SolveConfig:
    """Which engine answers the query, and its resource budget.

    ``split_components`` routes chromatic descents on the persistent-
    solver backend through the per-component Session pool whenever the
    kernel is disconnected: each component gets its own persistent
    solver and the results recombine as the max over components.

    ``racers`` names the engines the ``portfolio`` backend races
    (``"backend"`` or ``"backend:strategy"`` specs); ``share_clauses``
    additionally exchanges short learned clauses between the portfolio's
    CDCL racers.
    """

    backend: str = "pb-pbs2"
    strategy: Optional[str] = None  # None = the backend's default
    time_limit: Optional[float] = None
    conflict_limit: Optional[int] = None
    incremental: bool = True
    use_bounds: bool = True
    split_components: bool = True
    racers: Tuple[str, ...] = DEFAULT_RACERS
    share_clauses: bool = False

    def __post_init__(self) -> None:
        if self.strategy is not None:
            _check_choice(self.strategy, SEARCH_STRATEGIES, "search strategy")
        # Imported lazily: the backend registry imports this module.
        from .backends import check_backend_name, resolve_backend_name

        check_backend_name(self.backend)
        racers = tuple(self.racers)
        object.__setattr__(self, "racers", racers)
        for spec in racers:
            name, _, strategy = spec.partition(":")
            resolve_backend_name(name)
            if strategy:
                _check_choice(strategy, SEARCH_STRATEGIES, "search strategy")


@dataclass(frozen=True)
class BudgetConfig:
    """How the run's time budget is divided across pipeline stages.

    ``prep_fraction`` caps the *optional* preparation stages (sbp,
    simplify, detect) at that fraction of the total budget: once the
    prep sub-deadline expires, remaining optional stages are skipped —
    they only speed the solver up, so on a tight budget the time is
    better spent solving.  The mandatory stages (reduce, encode, solve)
    always run against the run's own deadline.  With no time limit
    configured the budget is unbounded and no stage is ever skipped.
    """

    prep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.prep_fraction <= 1.0:
            raise ValueError(
                f"prep_fraction must be in [0, 1], got {self.prep_fraction}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """The full pipeline: one config per stage plus the stage order."""

    reduce: ReduceConfig = field(default_factory=ReduceConfig)
    encode: EncodeConfig = field(default_factory=EncodeConfig)
    symmetry: SymmetryConfig = field(default_factory=SymmetryConfig)
    simplify: SimplifyConfig = field(default_factory=SimplifyConfig)
    solve: SolveConfig = field(default_factory=SolveConfig)
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    order: Tuple[str, ...] = DEFAULT_STAGE_ORDER

    def __post_init__(self) -> None:
        order = tuple(self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != sorted(STAGES):
            raise ValueError(
                f"stage order must be a permutation of {STAGES}, got {order}"
            )
        if order[0] != "reduce" or order[1] != "encode" or order[-1] != "solve":
            raise ValueError(
                "stage order must start with ('reduce', 'encode') and end "
                f"with 'solve' (the middle stages permute freely), got {order}"
            )

    def formula_stages(self) -> Tuple[str, ...]:
        """The stages between encoding and solving, in execution order."""
        return tuple(s for s in self.order if s in ("sbp", "simplify", "detect"))

    def with_stage(self, **stage_configs: object) -> "PipelineConfig":
        """Copy with the named stage configs replaced."""
        return replace(self, **stage_configs)

    def summary(self) -> Dict[str, object]:
        """Flat provenance-friendly view of every knob."""
        return {
            "reduce": self.reduce.enabled,
            "amo": self.encode.amo,
            "sbp_kind": self.symmetry.sbp_kind,
            "instance_dependent": self.symmetry.instance_dependent,
            "detection_node_limit": self.symmetry.detection_node_limit,
            "simplify": self.simplify.enabled,
            "backend": self.solve.backend,
            "strategy": self.solve.strategy,
            "time_limit": self.solve.time_limit,
            "conflict_limit": self.solve.conflict_limit,
            "incremental": self.solve.incremental,
            "use_bounds": self.solve.use_bounds,
            "split_components": self.solve.split_components,
            "racers": self.solve.racers,
            "share_clauses": self.solve.share_clauses,
            "prep_fraction": self.budget.prep_fraction,
            "order": self.order,
        }
