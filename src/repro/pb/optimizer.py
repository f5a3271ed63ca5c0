"""0-1 ILP optimization on top of the PB decision engine.

The paper's solvers minimize a linear objective subject to CNF + PB
constraints.  Two search strategies are provided, matching the paper's
Section 4.1 discussion of how chromatic-number bounds are tightened:

* **linear** — solve, add ``objective <= value - 1``, repeat until UNSAT
  (the strategy of PBS/Galena: each improving solution permanently
  tightens the bound in one incremental solver).
* **binary** — bisect on the objective value.  This also runs on
  **one persistent solver**: each probe's bound constraint is guarded
  by a fresh selector literal (``objective <= mid`` holds only while
  the selector is assumed true), so upper-half refutations *are*
  retractable — releasing the selector vacuously satisfies the guarded
  constraint — while learned clauses carry over between probes.
  :func:`minimize_binary` with ``incremental=False`` builds one fresh
  solver per probe instead: the reference the persistent bisection is
  tested against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.formula import Formula
from ..core.literals import var_of
from ..core.pbconstraint import normalize_terms
from ..resilience import Deadline
from ..sat.result import OPTIMAL, OptimizeResult, SAT, UNKNOWN, UNSAT, SolverStats
from .engine import PBSolver

SolverFactory = Callable[[], PBSolver]
ShouldStop = Callable[[], bool]


def _objective_value(formula: Formula, model: Dict[int, bool]) -> int:
    total = 0
    for coef, lit in formula.objective or ():
        if (lit > 0) == model[var_of(lit)]:
            total += coef
    return total


def _load(solver: PBSolver, formula: Formula) -> bool:
    return solver.add_formula(formula)


def _bound_terms(formula: Formula, bound: int):
    """Terms and degree of ``objective <= bound`` in >= normal form."""
    flipped = [(-c, l) for c, l in formula.objective or ()]
    return flipped, -bound


def minimize_linear(
    formula: Formula,
    solver_factory: Optional[SolverFactory] = None,
    time_limit: Optional[float] = None,
    conflict_limit: Optional[int] = None,
    upper_bound_hint: Optional[int] = None,
    lower_bound: int = 0,
    should_stop: Optional[ShouldStop] = None,
) -> OptimizeResult:
    """Minimize the objective by descending linear search.

    ``upper_bound_hint`` (e.g. from a DSATUR coloring) seeds the bound
    constraint before the first solve; ``lower_bound`` (e.g. a clique
    bound) lets the search stop without a final UNSAT probe.  The
    search runs one persistent solver: bound tightening is monotone.
    """
    if formula.objective is None:
        raise ValueError("formula has no objective")
    deadline = Deadline.after(time_limit)
    stats = SolverStats()
    solver = (solver_factory or PBSolver)()
    if not _load(solver, formula):
        return OptimizeResult(UNSAT, stats=stats)
    if upper_bound_hint is not None:
        terms, degree = _bound_terms(formula, upper_bound_hint)
        if not solver.add_linear_ge(terms, degree):
            return OptimizeResult(UNSAT, stats=stats)
    best_value: Optional[int] = None
    best_model: Optional[Dict[int, bool]] = None
    while True:
        if should_stop is not None and should_stop():
            status = SAT if best_value is not None else UNKNOWN
            return OptimizeResult(status, best_value, best_model, stats)
        if deadline.expired():
            status = SAT if best_value is not None else UNKNOWN
            return OptimizeResult(status, best_value, best_model, stats)
        result = solver.solve(
            time_limit=deadline.remaining(),
            conflict_limit=conflict_limit,
            should_stop=should_stop,
        )
        stats.merge(result.stats)
        if result.is_unsat:
            if best_value is None:
                return OptimizeResult(UNSAT, stats=stats)
            return OptimizeResult(OPTIMAL, best_value, best_model, stats)
        if result.is_unknown:
            status = SAT if best_value is not None else UNKNOWN
            return OptimizeResult(status, best_value, best_model, stats)
        value = _objective_value(formula, result.model)
        if best_value is None or value < best_value:
            best_value, best_model = value, result.model
        if best_value <= lower_bound:
            return OptimizeResult(OPTIMAL, best_value, best_model, stats)
        terms, degree = _bound_terms(formula, best_value - 1)
        if not solver.add_linear_ge(terms, degree):
            return OptimizeResult(OPTIMAL, best_value, best_model, stats)


def minimize_binary(
    formula: Formula,
    solver_factory: Optional[SolverFactory] = None,
    time_limit: Optional[float] = None,
    conflict_limit: Optional[int] = None,
    upper_bound_hint: Optional[int] = None,
    lower_bound: int = 0,
    incremental: bool = True,
    should_stop: Optional[ShouldStop] = None,
) -> OptimizeResult:
    """Minimize the objective by bisection.

    With ``incremental=True`` (default) every probe runs on one
    persistent solver: the probe's bound constraint ``objective <= mid``
    is normalized to ``sum(c_i * ~l_i) >= d`` and guarded with a fresh
    selector ``s`` by adding the term ``(d, ~s)`` — with ``s`` unassumed
    the guard term alone satisfies the constraint, so a refuted
    upper-half probe is retracted simply by dropping the assumption
    while everything learned from it remains sound.  With
    ``incremental=False`` each probe pays for a fresh solver; no
    pipeline runs that mode, which is the reference the tests compare
    the persistent bisection against.
    """
    if formula.objective is None:
        raise ValueError("formula has no objective")
    if incremental:
        return _minimize_binary_incremental(
            formula, solver_factory, time_limit, conflict_limit,
            upper_bound_hint, lower_bound, should_stop,
        )
    deadline = Deadline.after(time_limit)
    stats = SolverStats()
    factory = solver_factory or PBSolver

    def probe(bound: Optional[int]) -> Tuple[str, Optional[Dict[int, bool]]]:
        solver = factory()
        if not _load(solver, formula):
            return UNSAT, None
        if bound is not None:
            terms, degree = _bound_terms(formula, bound)
            if not solver.add_linear_ge(terms, degree):
                return UNSAT, None
        if deadline.expired():
            return UNKNOWN, None
        if should_stop is not None and should_stop():
            return UNKNOWN, None
        result = solver.solve(
            time_limit=deadline.remaining(),
            conflict_limit=conflict_limit,
            should_stop=should_stop,
        )
        stats.merge(result.stats)
        return result.status, result.model

    # Establish feasibility (and a first incumbent).
    status, model = probe(upper_bound_hint)
    if status == UNSAT and upper_bound_hint is not None:
        # The hint may simply be too tight; retry unconstrained.
        status, model = probe(None)
    if status == UNSAT:
        return OptimizeResult(UNSAT, stats=stats)
    if status == UNKNOWN:
        return OptimizeResult(UNKNOWN, stats=stats)
    best_value = _objective_value(formula, model)
    best_model = model
    lo, hi = lower_bound, best_value
    while lo < hi:
        mid = (lo + hi) // 2
        status, model = probe(mid)
        if status == UNKNOWN:
            return OptimizeResult(SAT, best_value, best_model, stats)
        if status == UNSAT:
            lo = mid + 1
        else:
            value = _objective_value(formula, model)
            if value < best_value:
                best_value, best_model = value, model
            hi = min(best_value, mid)
    return OptimizeResult(OPTIMAL, best_value, best_model, stats)


def _minimize_binary_incremental(
    formula: Formula,
    solver_factory: Optional[SolverFactory],
    time_limit: Optional[float],
    conflict_limit: Optional[int],
    upper_bound_hint: Optional[int],
    lower_bound: int,
    should_stop: Optional[ShouldStop] = None,
) -> OptimizeResult:
    """Bisection on one persistent solver via selector-guarded bounds."""
    deadline = Deadline.after(time_limit)
    stats = SolverStats()
    solver = (solver_factory or PBSolver)()
    if not _load(solver, formula):
        return OptimizeResult(UNSAT, stats=stats)
    # Selector variables live above every formula variable; the solver
    # grows on demand.
    next_selector = [max(formula.num_vars, solver.num_vars)]

    def probe(bound: Optional[int]) -> Tuple[str, Optional[Dict[int, bool]]]:
        assumptions: List[int] = []
        if bound is not None:
            terms, degree = _bound_terms(formula, bound)
            norm_terms, norm_degree = normalize_terms(list(terms), degree)
            if norm_degree > 0:
                next_selector[0] += 1
                selector = next_selector[0]
                # Bias the selector phase off so the solver never
                # branches an old probe's bound back on voluntarily.
                solver._ensure_var(selector)
                solver.saved_phase[selector] = False
                guarded = list(norm_terms) + [(norm_degree, -selector)]
                if not solver.add_linear_ge(guarded, norm_degree):
                    return UNSAT, None
                assumptions = [selector]
        if deadline.expired():
            return UNKNOWN, None
        if should_stop is not None and should_stop():
            return UNKNOWN, None
        result = solver.solve(
            assumptions=assumptions,
            time_limit=deadline.remaining(),
            conflict_limit=conflict_limit,
            should_stop=should_stop,
        )
        stats.merge(result.stats)
        if result.is_unsat and assumptions and not result.failed_assumptions:
            # Empty core: the formula is UNSAT regardless of the probe's
            # bound — report it as such, not as a refuted probe.
            return UNSAT, False
        return result.status, result.model

    refuted_hint = None
    status, model = probe(upper_bound_hint)
    if status == UNSAT and model is None and upper_bound_hint is not None:
        # The hint was too tight, but its refutation is a bound: every
        # objective value <= hint is infeasible.
        refuted_hint = upper_bound_hint
        status, model = probe(None)
    if status == UNSAT or model is False:
        return OptimizeResult(UNSAT, stats=stats)
    if status == UNKNOWN:
        return OptimizeResult(UNKNOWN, stats=stats)
    best_value = _objective_value(formula, model)
    best_model = model
    lo, hi = lower_bound, best_value
    if refuted_hint is not None:
        lo = max(lo, refuted_hint + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        status, model = probe(mid)
        if status == UNKNOWN:
            return OptimizeResult(SAT, best_value, best_model, stats)
        if status == UNSAT:
            if model is False:
                # Globally UNSAT can only mean the incumbent bound search
                # is exhausted; the incumbent stands as optimal.
                return OptimizeResult(OPTIMAL, best_value, best_model, stats)
            lo = mid + 1
        else:
            value = _objective_value(formula, model)
            if value < best_value:
                best_value, best_model = value, model
            hi = min(best_value, mid)
    return OptimizeResult(OPTIMAL, best_value, best_model, stats)


def minimize(
    formula: Formula,
    strategy: str = "linear",
    **kwargs,
) -> OptimizeResult:
    """Minimize ``formula.objective``; strategy is ``"linear"`` or ``"binary"``."""
    if strategy == "linear":
        return minimize_linear(formula, **kwargs)
    if strategy == "binary":
        return minimize_binary(formula, **kwargs)
    raise ValueError(f"unknown optimization strategy {strategy!r}")
