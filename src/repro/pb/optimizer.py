"""0-1 ILP optimization on top of the PB decision engine.

The paper's solvers minimize a linear objective subject to CNF + PB
constraints, and its Section 4.1 tightens the chromatic-number bound by
linear search (PBS II, Galena) or binary search (Pueblo).
:func:`minimize` is that search, written once: it probes the hint (or
no bound), then asks ``objective <= k`` at ``hi - 1`` (``"linear"``) or
``(lo + hi) // 2`` (``"binary"``) until the bounds meet.  One of three
probes answers each question:

* **linear** — a permanent bound on one solver: the search is
  monotone, so every improving solution tightens the bound for good;
* **binary** — a selector-guarded bound on one solver: ``objective <=
  mid`` holds only while its fresh selector is assumed true, so an
  upper-half refutation is retracted by dropping the assumption, while
  the clauses learned from it carry over to later probes;
* ``incremental=False`` — a fresh solver per probe, the reference the
  tests compare both persistent probes against.

In every mode a refuted hint only raises the lower bound to ``hint +
1``: the search retries with no bound, and the linear probe, whose hint
bound is permanent, reloads a fresh solver without it.

This loop stays apart from :func:`repro.coloring.descent.descend`: there
a refuted *cap* is the problem's answer (UNSAT), here a refuted hint is
only a bound.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.formula import Formula
from ..core.literals import var_of
from ..core.pbconstraint import normalize_terms
from ..resilience import Deadline
from ..sat.factory import register_solver
from ..sat.result import OPTIMAL, OptimizeResult, SAT, UNKNOWN, UNSAT, SolverStats
from .engine import PBSolver

STRATEGIES = ("linear", "binary")

SolverFactory = Callable[[], PBSolver]
ShouldStop = Callable[[], bool]
Model = Dict[int, bool]
Answer = Tuple[str, Optional[Model]]
Probe = Callable[[Optional[int]], Answer]
Solve = Callable[[PBSolver, List[int]], Answer]


def _objective_value(formula: Formula, model: Model) -> int:
    total = 0
    for coef, lit in formula.objective or ():
        if (lit > 0) == model[var_of(lit)]:
            total += coef
    return total


def _bound_terms(formula: Formula, bound: int):
    """Terms and degree of ``objective <= bound`` in >= normal form."""
    flipped = [(-c, l) for c, l in formula.objective or ()]
    return flipped, -bound


def _add_bound(solver: PBSolver, formula: Formula, bound: Optional[int]) -> bool:
    """Add ``objective <= bound`` for good (``None``: no bound)."""
    return bound is None or solver.add_linear_ge(*_bound_terms(formula, bound))


def _probe(
    formula: Formula, strategy: str, incremental: bool,
    factory: SolverFactory, solve: Solve,
) -> Probe:
    """The probe answering ``objective <= bound`` for :func:`minimize`.

    A bound the solver refutes on loading, like a formula it refutes on
    loading, answers UNSAT without a solve.
    """
    if not incremental:
        def fresh(bound: Optional[int]) -> Answer:
            solver = factory()
            if not (solver.add_formula(formula) and _add_bound(solver, formula, bound)):
                return UNSAT, None
            return solve(solver, [])
        return fresh

    solver = factory()
    loaded = solver.add_formula(formula)
    if strategy == "linear":
        def permanent(bound: Optional[int]) -> Answer:
            if not (loaded and _add_bound(solver, formula, bound)):
                return UNSAT, None
            return solve(solver, [])
        return permanent

    # Selector variables live above every formula variable; the solver
    # grows on demand.
    selector = max(formula.num_vars, solver.num_vars)

    def guarded(bound: Optional[int]) -> Answer:
        nonlocal selector
        if not loaded:
            return UNSAT, None
        assumptions: List[int] = []
        if bound is not None:
            # ``sum(c_i * ~l_i) >= d`` plus the guard term ``(d, ~s)``:
            # with ``s`` unassumed the guard alone satisfies it.
            terms, degree = normalize_terms(*_bound_terms(formula, bound))
            if degree > 0:
                selector += 1
                # Bias the selector phase off so the solver never
                # branches an old probe's bound back on voluntarily.
                solver._ensure_var(selector)
                solver.saved_phase[selector] = False
                if not solver.add_linear_ge(terms + [(degree, -selector)], degree):
                    return UNSAT, None
                assumptions = [selector]
        return solve(solver, assumptions)
    return guarded


def minimize(
    formula: Formula,
    strategy: str = "linear",
    solver_factory: Optional[SolverFactory] = None,
    time_limit: Optional[float] = None,
    upper_bound_hint: Optional[int] = None,
    lower_bound: int = 0,
    should_stop: Optional[ShouldStop] = None,
    incremental: bool = True,
) -> OptimizeResult:
    """Minimize ``formula.objective`` by linear or binary search.

    ``upper_bound_hint`` (e.g. a DSATUR color count) bounds the first
    probe; ``lower_bound`` (e.g. a clique bound) lets the search stop
    without refuting it.  ``time_limit`` and ``should_stop`` are checked
    before every probe's solve and polled inside it; either ends the
    search with the best solution so far (SAT), or UNKNOWN without one.
    ``incremental=False`` answers every probe on a fresh solver.  With
    no ``solver_factory`` each solver is a default :class:`PBSolver`,
    registered like every engine (counted, and traced when a tracer is
    installed).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown optimization strategy {strategy!r}")
    if formula.objective is None:
        raise ValueError("formula has no objective")
    deadline = Deadline.after(time_limit)
    stats = SolverStats()
    factory = solver_factory or (lambda: register_solver(PBSolver()))

    def solve(solver: PBSolver, assumptions: List[int]) -> Answer:
        if deadline.expired() or (should_stop is not None and should_stop()):
            return UNKNOWN, None
        result = solver.solve(
            assumptions=assumptions, time_limit=deadline.remaining(),
            should_stop=should_stop,
        )
        stats.merge(result.stats)
        return result.status, result.model

    probe = _probe(formula, strategy, incremental, factory, solve)
    lo = lower_bound
    status, model = probe(upper_bound_hint)
    if status == UNSAT and upper_bound_hint is not None:
        # The hint may be too tight, but its refutation is a bound:
        # every objective value <= hint is infeasible.
        lo = max(lo, upper_bound_hint + 1)
        if incremental and strategy == "linear":
            probe = _probe(formula, strategy, incremental, factory, solve)
        status, model = probe(None)
    if status != SAT or model is None:
        return OptimizeResult(status, stats=stats)
    best_value, best_model = _objective_value(formula, model), model
    hi = best_value
    while lo < hi:
        mid = hi - 1 if strategy == "linear" else (lo + hi) // 2
        status, model = probe(mid)
        if status == UNSAT:
            lo = mid + 1
        elif status == SAT and model is not None:
            value = _objective_value(formula, model)
            if value < best_value:
                best_value, best_model = value, model
            hi = min(best_value, mid)
        else:
            return OptimizeResult(SAT, best_value, best_model, stats)
    return OptimizeResult(OPTIMAL, best_value, best_model, stats)
