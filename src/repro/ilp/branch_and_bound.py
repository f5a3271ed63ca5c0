"""Generic LP-relaxation branch and bound — the CPLEX stand-in.

This solver treats a 0-1 ILP the way a generic MIP solver does: relax
to a linear program, solve with the simplex/interior-point code in
scipy (HiGHS), branch on a fractional variable, prune by bound and
infeasibility.  It knows nothing about clauses, learning or symmetry —
which is exactly the behavioural profile the paper observes for CPLEX:
competitive on the plain encodings, *hurt* by large clausal SBP
additions (every added SBP row grows each LP re-solve, while yielding
no cutting-plane benefit).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from ..core.formula import Formula
from ..resilience import Deadline
from ..sat.result import (
    OPTIMAL,
    OptimizeResult,
    SAT,
    SolveResult,
    SolverStats,
    UNKNOWN,
    UNSAT,
)
from .model import ILPModel, assignment_from_point, formula_to_ilp

INT_TOL = 1e-6


class BranchAndBoundSolver:
    """Depth-first LP-based branch and bound over 0-1 variables,
    branching on the most fractional variable."""

    def __init__(self) -> None:
        self.nodes_explored = 0

    # ----------------------------------------------------------- internals
    def _solve_lp(
        self, model: ILPModel, lower: np.ndarray, upper: np.ndarray
    ) -> Tuple[str, Optional[np.ndarray], float]:
        bounds = list(zip(lower, upper))
        res = linprog(
            model.c,
            A_ub=model.a_ub if model.row_count() else None,
            b_ub=model.b_ub if model.row_count() else None,
            bounds=bounds,
            method="highs",
        )
        if res.status == 2:  # infeasible
            return "infeasible", None, float("inf")
        if not res.success:
            return "error", None, float("inf")
        return "ok", res.x, float(res.fun)

    def _pick_branch_var(self, x: np.ndarray, fixed: np.ndarray) -> int:
        frac = np.abs(x - np.round(x))
        frac[fixed] = 0.0
        candidates = np.where(frac > INT_TOL)[0]
        if len(candidates) == 0:
            return -1
        scores = np.abs(x[candidates] - 0.5)
        return int(candidates[np.argmin(scores)])

    # --------------------------------------------------------------- solve
    def optimize(
        self,
        formula: Formula,
        time_limit: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        upper_bound: Optional[int] = None,
        lower_bound: Optional[int] = None,
    ) -> OptimizeResult:
        """Minimize/maximize the formula objective; prove optimality.

        ``should_stop`` is polled once per node, like the CDCL engine's
        cancellation hook: when it returns True the incumbent (if any)
        is returned as SAT, otherwise UNKNOWN.

        The bounds apply to a minimized objective.  ``upper_bound`` is the
        value of a model the formula is known to have (the 0-1 ILP flow
        passes DSATUR's color count): a node whose bound exceeds it is
        pruned, incumbent or not, so the search still reaches a model at
        or below it.  ``lower_bound`` is a proved bound (the clique
        bound): an incumbent that reaches it is OPTIMAL at once.
        """
        if formula.objective is None:
            raise ValueError("formula has no objective; use decide()")
        start = time.monotonic()
        deadline = Deadline.after(time_limit)
        stats = SolverStats()
        model = formula_to_ilp(formula)
        n = model.num_vars
        offset = model.objective_offset  # the objective's value is c.x + offset
        best_value: Optional[float] = None
        best_x: Optional[np.ndarray] = None
        self.nodes_explored = 0
        # Stack of (lower_bounds, upper_bounds) numpy arrays.
        stack: List[Tuple[np.ndarray, np.ndarray]] = [(np.zeros(n), np.ones(n))]
        timed_out = False
        while stack:
            if deadline.expired():
                timed_out = True
                break
            if should_stop is not None and should_stop():
                timed_out = True
                break
            lower, upper = stack.pop()
            self.nodes_explored += 1
            stats.decisions += 1
            status, x, lp_value = self._solve_lp(model, lower, upper)
            if status == "infeasible":
                stats.conflicts += 1
                continue
            if status == "error":
                continue
            # Bound pruning: objective coefficients are integral, so any
            # integral solution under this node has value >= ceil(lp).
            node_bound = int(np.ceil(lp_value - 1e-9))
            if (best_value is not None and node_bound >= best_value
                    or upper_bound is not None and node_bound + offset > upper_bound):
                continue
            fixed = lower >= upper  # variables pinned by branching
            frac = np.abs(x - np.round(x))
            if np.all(frac <= INT_TOL):
                value = lp_value
                ivalue = int(round(value))
                if best_value is None or ivalue < best_value:
                    best_value = ivalue
                    best_x = np.round(x)
                    if lower_bound is not None and ivalue + offset <= lower_bound:
                        break
                continue
            var = self._pick_branch_var(x, fixed)
            if var < 0:
                continue
            # DFS: explore the rounded-towards side first (stack is LIFO,
            # so push the "away" branch first).
            floor_up = upper.copy()
            floor_up[var] = 0.0
            ceil_lo = lower.copy()
            ceil_lo[var] = 1.0
            if x[var] >= 0.5:
                stack.append((lower, floor_up))
                stack.append((ceil_lo, upper))
            else:
                stack.append((ceil_lo, upper))
                stack.append((lower, floor_up))
        stats.time_seconds = time.monotonic() - start
        if best_x is None:
            if timed_out:
                return OptimizeResult(UNKNOWN, stats=stats)
            return OptimizeResult(UNSAT, stats=stats)
        model_assignment = assignment_from_point(best_x)
        value = formula.objective_value(model_assignment)
        status = SAT if timed_out else OPTIMAL
        return OptimizeResult(status, value, model_assignment, stats)

    def decide(
        self,
        formula: Formula,
        time_limit: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> SolveResult:
        """Feasibility check (no objective) via branch and bound."""
        probe = formula.copy()
        probe.set_objective([], sense="min")
        result = self.optimize(probe, time_limit=time_limit, should_stop=should_stop)
        if result.status in (OPTIMAL, SAT):
            return SolveResult(SAT, model=result.best_model, stats=result.stats)
        return SolveResult(result.status, stats=result.stats)

