"""Solver presets modelling the behavioural profiles of the paper's solvers.

The paper compares PBS II, Galena and Pueblo — three specialized 0-1 ILP
solvers that share the CDCL+PB architecture but differ in search
configuration (decision-heuristic parameters, restart policy, database
management) and in how the optimization loop tightens the objective.
We model each as a configuration of the same engine:

* ``pbs2``   — VSIDS decay 0.95, Luby-100 restarts, linear-search
  optimization with PB-style incremental bound tightening.
* ``galena`` — slower decay (0.90), long restarts, linear search with a
  tight learned-clause budget (Galena's default "linear search with
  CARD learning" mode leaned on compact cardinality databases).
* ``pueblo`` — fast decay (0.98), aggressive Luby-64 restarts, hybrid
  binary-search optimization (Pueblo's cutting-plane learning made
  refutation probes cheap).

These are stand-ins: they reproduce the *behavioural role* each solver
plays in the paper's tables (three specialized engines with comparable
performance and identical trends), not the proprietary internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.formula import Formula
from ..sat.factory import register_solver
from ..sat.result import OptimizeResult
from .engine import PBSolver
from .optimizer import minimize


@dataclass(frozen=True)
class SolverPreset:
    """A named configuration of the PB engine."""

    name: str
    decay: float = 0.95
    restart_base: int = 100
    max_learned_start: int = 4000
    optimization_strategy: str = "linear"
    description: str = ""

    def make_solver(self, num_vars: int = 0) -> PBSolver:
        """Instantiate a fresh engine with this preset's parameters.

        The engine is registered like every solver
        (:func:`~repro.sat.factory.register_solver`): counted, and
        traced when a tracer is installed.
        """
        return register_solver(PBSolver(
            num_vars=num_vars,
            decay=self.decay,
            restart_base=self.restart_base,
            max_learned_start=self.max_learned_start,
        ))

    def solver_factory(self) -> Callable[[], PBSolver]:
        return lambda: self.make_solver()


PRESETS: Dict[str, SolverPreset] = {
    "pbs2": SolverPreset(
        name="pbs2",
        decay=0.95,
        restart_base=100,
        optimization_strategy="linear",
        description="PBS II profile: Chaff-style VSIDS, linear-search optimization",
    ),
    "galena": SolverPreset(
        name="galena",
        decay=0.90,
        restart_base=250,
        max_learned_start=2500,
        optimization_strategy="linear",
        description="Galena profile: long restarts, compact learned DB, linear search",
    ),
    "pueblo": SolverPreset(
        name="pueblo",
        decay=0.98,
        restart_base=64,
        optimization_strategy="binary",
        description="Pueblo profile: aggressive restarts, binary-search optimization",
    ),
}


def get_preset(name: str) -> SolverPreset:
    """Look up a preset by name.

    Raises ``ValueError`` naming the registered choices — preset lookup
    is an API boundary, so a bad name must fail fast and legibly, not as
    a ``KeyError`` from deep inside a table.
    """
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown solver preset {name!r}; registered choices: {sorted(PRESETS)}"
        ) from None


def solve_optimize(
    formula: Formula,
    preset: str = "pbs2",
    time_limit: Optional[float] = None,
    upper_bound_hint: Optional[int] = None,
    lower_bound: int = 0,
    should_stop: Optional[Callable[[], bool]] = None,
) -> OptimizeResult:
    """Minimize a formula's objective with a named preset."""
    config = get_preset(preset)
    return minimize(
        formula,
        strategy=config.optimization_strategy,
        solver_factory=config.solver_factory(),
        time_limit=time_limit,
        upper_bound_hint=upper_bound_hint,
        lower_bound=lower_bound,
        should_stop=should_stop,
    )
