"""A pseudo-Boolean (0-1 ILP) extension of the CDCL engine.

This is the architecture of the paper's specialized solvers (PBS II,
Galena, Pueblo): a Chaff-style CDCL core whose propagation also handles
normalized PB constraints ``sum(coef_i * lit_i) >= degree`` via
counter-based (slack) propagation, with conflicts over PB constraints
explained as clauses so the standard first-UIP learning applies — the
CNF-learning scheme of PBS.

Slack bookkeeping: every constraint tracks ``slack = (sum of
coefficients of non-false terms) - degree``.  Negative slack means the
constraint is falsified; an unassigned term whose coefficient exceeds
the slack must be set true.  Slack is updated incrementally as trail
literals are processed and restored on backtrack.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.collector import collector_paused
from ..core.formula import Formula
from ..core.pbconstraint import normalize_terms
from ..sat.cdcl import CDCLSolver, _load_clauses
from ..sat.result import SolveResult


class PBData:
    """Solver-internal state of one normalized PB constraint."""

    __slots__ = ("terms", "degree", "slack", "max_coef")

    def __init__(self, terms: Sequence[Tuple[int, int]], degree: int):
        # Descending coefficients make the propagation scan early-exit.
        self.terms: List[Tuple[int, int]] = sorted(terms, key=lambda t: -t[0])
        self.degree = degree
        self.slack = sum(c for c, _ in self.terms) - degree
        self.max_coef = self.terms[0][0] if self.terms else 0

    def __repr__(self) -> str:
        lhs = " + ".join(f"{c}*{l}" for c, l in self.terms)
        return f"PBData({lhs} >= {self.degree}, slack={self.slack})"


class PBSolver(CDCLSolver):
    """CDCL solver over mixed CNF clauses and PB constraints.

    Decision-problem use::

        solver = PBSolver()
        solver.add_formula(formula)          # clauses + PB constraints
        result = solver.solve(time_limit=10)

    Optimization is layered on top by :mod:`repro.pb.optimizer`.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.pb_constraints: List[PBData] = []
        # _pb_occ[lit] lists (constraint, coef) pairs whose term literal
        # is falsified when ``lit`` is assigned true (i.e. term == -lit).
        self._pb_occ: Dict[int, List[Tuple[PBData, int]]] = {}
        self.pb_qhead = 0

    # ------------------------------------------------------------- loading
    def add_linear_ge(self, terms: Iterable[Tuple[int, int]], degree: int) -> bool:
        """Add a PB constraint ``sum(coef*lit) >= degree`` (any sign coefs).

        Returns False when the constraint makes the problem UNSAT at
        level 0.  Must be called at decision level 0.
        """
        if self.trail_lim:
            raise RuntimeError("add_linear_ge is only legal at decision level 0")
        norm_terms, norm_degree = normalize_terms(terms, degree)
        for _, lit in norm_terms:
            self._ensure_var(abs(lit))
        return self._add_normalized(norm_terms, norm_degree)

    def add_formula(self, formula: Formula) -> bool:
        """Load clauses and PB constraints (objective ignored); False once refuted.

        Each constraint's normal form is the one ``PBConstraint.to_geq``
        computes; the cyclic collector is paused while loading (see
        :mod:`repro.core.collector`).
        """
        with collector_paused():
            if not _load_clauses(self, formula):
                return False
            add = self._add_normalized
            for pb in formula.pb_constraints:
                for geq in pb.to_geq():
                    if not add(geq.terms, geq.degree):
                        return False
            return True

    def _add_normalized(self, terms: Sequence[Tuple[int, int]], degree: int) -> bool:
        """Add ``sum(coef*lit) >= degree`` in normal form; False once refuted.

        ``terms`` are ``normalize_terms`` output over variables the
        solver already has: positive coefficients saturated at
        ``degree``, one term per variable.  Root-level forced literals
        are substituted directly into the constraint: a true literal
        moves its coefficient onto the degree, a false literal
        contributes nothing and is dropped.  The stored constraint is
        tighter (smaller degree, fewer terms) and never needs
        trail-position bookkeeping for old assignments, because dropped
        terms have no occurrence entries.
        """
        values = self.values
        fixed_terms = []
        fixed_degree = degree
        for coef, lit in terms:
            value = values[lit]
            if value > 0:
                fixed_degree -= coef
            elif value == 0:
                fixed_terms.append((coef, lit))
        if fixed_degree <= 0:
            return True  # a tautology
        if fixed_degree < degree:
            # Re-saturate: coefficients above the degree act like it.
            fixed_terms = [(min(c, fixed_degree), l) for c, l in fixed_terms]
        total = sum(c for c, _ in fixed_terms)
        if total < fixed_degree:
            self._unsat = True
            return False
        if fixed_degree == 1:
            # Saturated at degree 1 every coefficient is 1: a clause.
            return self._add_unassigned([l for _, l in fixed_terms])
        data = PBData(fixed_terms, fixed_degree)
        self.pb_constraints.append(data)
        for coef, lit in data.terms:
            self._pb_occ.setdefault(-lit, []).append((data, coef))
        # Initial propagation: constraints can be unit "out of the box".
        if data.slack < data.max_coef:
            for coef, lit in data.terms:
                if coef <= data.slack:
                    break
                if values[lit] == 0:
                    self._enqueue(lit, data)
        if self._propagate() is not None:
            self._unsat = True
            return False
        return True

    # --------------------------------------------------------- propagation
    def _propagate(self):
        """Propagate to fixpoint; returns a conflicting constraint or None.

        Alternates clause (watched-literal) propagation with slack
        propagation until neither produces new assignments.
        """
        while True:
            conflict = super()._propagate()
            if conflict is not None:
                return conflict
            conflict = self._propagate_pb()
            if conflict is not None:
                self.qhead = len(self.trail)
                return conflict
            if self.qhead >= len(self.trail):
                return None

    def _propagate_pb(self) -> Optional[PBData]:
        trail = self.trail
        occ = self._pb_occ
        values = self.values
        while self.pb_qhead < len(trail):
            q = trail[self.pb_qhead]
            self.pb_qhead += 1
            self.stats.propagations += 1
            conflict: Optional[PBData] = None
            # Finish the whole occurrence list even after a conflict:
            # backtracking restores the slack of *every* constraint in
            # occ[q], so every one of them must have been decremented.
            for constraint, coef in occ.get(q, ()):
                constraint.slack -= coef
                if conflict is not None:
                    continue
                slack = constraint.slack
                if slack < 0:
                    conflict = constraint
                    continue
                if slack < constraint.max_coef:
                    for tcoef, tlit in constraint.terms:
                        if tcoef <= slack:
                            break
                        if values[tlit] == 0:
                            self._enqueue(tlit, constraint)
            if conflict is not None:
                return conflict
        return None

    def _on_backtrack(self, trail_bound: int, popped: List[int]) -> None:
        occ = self._pb_occ
        # Only entries the PB queue actually processed were subtracted.
        limit = self.pb_qhead - trail_bound
        for offset, q in enumerate(popped):
            if offset >= limit:
                break
            for constraint, coef in occ.get(q, ()):
                constraint.slack += coef
        if self.pb_qhead > trail_bound:
            self.pb_qhead = trail_bound

    # ------------------------------------------------------------ analysis
    def _reason_literals(self, reason, lit: int) -> Sequence[int]:
        if reason is None:
            return ()
        if isinstance(reason, PBData):
            return self._explain_pb(reason, lit)
        return reason

    def _explain_pb(self, constraint: PBData, lit: int) -> List[int]:
        """Clause explanation of a PB conflict or propagation.

        For a conflict (``lit == 0``): a subset S of currently-false term
        literals such that falsifying S alone already violates the
        constraint; the clause ``∨ S`` is implied by the constraint.

        For an implied literal ``lit``: same idea restricted to term
        literals falsified *before* ``lit`` was enqueued, with the
        implied literal's coefficient removed from the achievable sum;
        the clause is ``lit ∨ (∨ S)``.
        """
        total = sum(c for c, _ in constraint.terms)
        if lit == 0:
            need = total - constraint.degree + 1
            horizon = None
        else:
            coef_lit = next(c for c, t in constraint.terms if t == lit)
            need = total - constraint.degree - coef_lit + 1
            horizon = self.trail_pos[abs(lit)]
        if need <= 0:
            return [lit] if lit else []
        false_terms: List[Tuple[int, int, int]] = []
        values = self.values
        for coef, term in constraint.terms:
            if term == lit:
                continue
            if values[term] < 0:
                pos = self.trail_pos[abs(term)]
                if horizon is None or pos < horizon:
                    false_terms.append((coef, self.level[abs(term)], term))
        # Prefer large coefficients (fewer literals) and low levels
        # (better backjumps) when choosing the explaining subset.
        false_terms.sort(key=lambda t: (-t[0], t[1]))
        chosen: List[int] = []
        covered = 0
        for coef, _, term in false_terms:
            chosen.append(term)
            covered += coef
            if covered >= need:
                break
        if covered < need:
            raise AssertionError(
                f"PB explanation failed: covered {covered} < needed {need} in {constraint!r}"
            )
        if lit:
            return [lit] + chosen
        return chosen

    # --------------------------------------------------------------- solve
    def solve(self, assumptions: Sequence[int] = (), **kwargs) -> SolveResult:
        """Decide satisfiability of the loaded clauses + PB constraints.

        The search is :meth:`CDCLSolver.solve`'s; the PB engine names it
        here so that perfbench's per-layer tracer (which wraps each
        class's own ``solve``) tells PB searches apart.
        """
        return super().solve(assumptions=assumptions, **kwargs)
