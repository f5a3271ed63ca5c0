"""A conflict-driven clause-learning (CDCL) SAT solver.

This is the library's stand-in for the Chaff/zChaff lineage the paper's
solvers descend from: two-watched-literal propagation, first-UIP
conflict analysis with clause minimization, VSIDS decisions, phase
saving, Luby restarts and activity/LBD-guided learned-clause deletion.
The PB engine in :mod:`repro.pb.engine` extends the same search loop
with pseudo-Boolean propagation.

The solver is **incremental** in the assumption-based style pioneered
by the Chaff/MiniSat lineage: clauses may be added between ``solve``
calls, each call may pass a list of assumption literals that hold only
for that call, and learned clauses, saved phases and VSIDS activity all
carry over from one call to the next.  When a query is UNSAT under
assumptions, :attr:`SolveResult.failed_assumptions` holds the subset of
assumptions in the final conflict (the MiniSat ``analyzeFinal`` core),
which callers such as the chromatic-number descent use to skip dead
queries.

Hot-path design (measured on the multi-K coloring descents):

* literal values and watch lists live in flat lists indexed by the
  literal itself: ``values[lit]`` and ``watches[lit]`` cover every
  ``lit`` in ``-cap..cap`` through Python's negative indexing (slot
  ``len - v`` holds ``-v``), so no read branches on the sign and no
  index is computed; ``_ensure_var`` doubles ``cap`` and re-lays both
  lists out in place, so references taken earlier stay valid;
* each watcher is a ``(clause, blocker)`` pair; a true blocker literal
  satisfies the clause without touching it (MiniSat's cached-literal
  optimization);
* the blocker of a binary clause is its other literal, so a binary
  watcher whose blocker is not true is kept as it is and the blocker
  enqueued, without reordering the clause: a binary reason holds one
  literal besides the one it implied, so its order is never read (a
  conflicting binary is still normalized, false literal second);
* clause deletion is lazy: deleted clauses are only marked, watchers
  drain them as they are visited, and the watch lists are compacted in
  one sweep when enough dead watchers accumulate;
* restarts are assumption-aware — they backtrack to the assumption
  prefix, never below it, so assumption-level propagation is not redone
  on every restart;
* decisions come from VSIDS's indexed heap (:mod:`repro.sat.vsids`):
  a bump moves the variable in place, and backtracking re-inserts only
  the unassigned variables that left the heap (decisions, and variables
  popped while assigned) — the rest never left it;
* propagation enqueues implied literals inline and reads the decision
  level once per call; the plain solver propagates clauses only, and a
  subclass with propagation of its own (the PB engine's slack
  counters) overrides ``_propagate`` to alternate the two;
* conflict analysis marks variables in one solver-owned ``_seen`` array
  and clears exactly the marks it set, so no conflict allocates an
  array over all variables; it hands VSIDS the conflict's variables in
  one batch bump, in the order it met them, and reads reasons straight
  from the reason array unless the class overrides
  ``_reason_literals`` (the PB engine's explained constraints);
* backtracking walks the popped trail slice once (unassign, save the
  phase, re-queue), and a subclass that unwinds state of its own (the
  PB engine's slack counters) is handed that slice.
"""

from __future__ import annotations

import time
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, List, Optional, Sequence

from ..core.formula import Formula
from ..core.literals import check_literal
from ..obs.metrics import get_registry
from .luby import luby_sequence
from .result import SAT, UNKNOWN, UNSAT, SolveResult, SolverStats
from .vsids import VSIDS

#: Each learned-clause database reduction raises the cap by this factor.
_LEARNED_GROWTH = 1.1


class WClause(list):
    """A solver-internal clause: a literal list plus learning metadata.

    Subclassing ``list`` keeps the watched-literal loop on plain indexed
    access while allowing the clause-deletion policy to tag clauses with
    their LBD (literal block distance), learnt status, and the lazy
    ``deleted`` mark that watch lists drain on their own schedule.
    """

    __slots__ = ("learnt", "lbd", "deleted")

    def __init__(self, lits: Iterable[int], learnt: bool = False, lbd: int = 0):
        self.extend(lits)  # list.__new__ made it empty; half the cost of list.__init__
        self.learnt = learnt
        self.lbd = lbd
        self.deleted = False


class CDCLSolver:
    """Incremental CDCL solver over CNF clauses.

    Typical one-shot use::

        solver = CDCLSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result = solver.solve()
        assert result.is_sat and result.model[2] is True

    Incremental use — one persistent solver, per-call assumptions::

        solver = CDCLSolver()
        solver.add_formula(formula)
        for selector in selectors:          # e.g. the K-search descent
            result = solver.solve(assumptions=[-selector])
            if result.is_unsat:
                core = result.failed_assumptions  # subset of assumptions
    """

    def __init__(
        self,
        num_vars: int = 0,
        decay: float = 0.95,
        restart_base: int = 100,
        max_learned_start: int = 4000,
    ):
        self.num_vars = 0
        # Literal-indexed: values[lit] is 1 true, -1 false, 0 unassigned
        # for every lit in -cap..-1 and 1..cap, cap = len(values) // 2
        # (slot 0 is unused).
        self.values: List[int] = [0]
        self.level: List[int] = [0]
        self.trail_pos: List[int] = [0]
        self.reason: List[Optional[WClause]] = [None]
        self.saved_phase: List[bool] = [False]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        # Literal-indexed like ``values``: watches[lit] holds (clause,
        # blocker) pairs for clauses in which ``-lit`` is watched.
        self.watches: List[list] = [[]]
        self.clauses: List[WClause] = []
        self.learned: List[WClause] = []
        self.vsids = VSIDS(0, decay=decay)
        # Conflict-analysis marks, all False between _analyze calls.
        self._seen: List[bool] = [False]
        # Only a subclass that unwinds state of its own (the PB engine's
        # slack counters) is handed the popped trail slice on backtrack.
        self._unwinds = type(self)._on_backtrack is not CDCLSolver._on_backtrack
        # Clause reasons are their own literal lists unless a subclass
        # explains reasons of its own (the PB engine's constraints).
        self._plain_reasons = (
            type(self)._reason_literals is CDCLSolver._reason_literals)
        self.restart_base = restart_base
        self.max_learned = max_learned_start
        self.stats = SolverStats()
        self._unsat = False  # formula proved UNSAT at level 0
        self._dead_watchers = 0  # lazy-deletion debt; compacted in one sweep
        # Event tracing (repro.obs): attached by the factory when a
        # tracer is installed; None costs the hot loop one branch.
        self.tracer = None
        self.tracer_id = 0
        self._ensure_var(num_vars)

    # ------------------------------------------------------------ plumbing
    def _ensure_var(self, var: int) -> None:
        if var <= self.num_vars:
            return
        values, watches = self.values, self.watches
        old = len(values) // 2
        if var > old:
            # Double the capacity and re-lay the literal-indexed lists
            # out in place: the negative literals move to the new tail.
            grow = 2 * (max(var, 2 * old) - old)
            values[old + 1:old + 1] = [0] * grow
            watches[old + 1:old + 1] = [[] for _ in range(grow)]
        while self.num_vars < var:
            self.num_vars += 1
            self.level.append(0)
            self.trail_pos.append(0)
            self.reason.append(None)
            self.saved_phase.append(False)
            self._seen.append(False)
        self.vsids.grow(self.num_vars)

    def value_of(self, lit: int):
        """Current value of a literal over ``1..num_vars``: True / False / None."""
        if not 0 < abs(lit) <= self.num_vars:
            raise ValueError(f"no variable {abs(lit)} in this solver")
        v = self.values[lit]
        if v == 0:
            return None
        return v > 0

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    # ------------------------------------------------------------- loading
    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if it makes the formula UNSAT at level 0.

        Must be called at decision level 0 (fresh solver or between
        ``solve`` calls, which always return at level 0).  A literal
        that is not a nonzero ``int`` raises ``ValueError``.
        """
        if self.trail_lim:
            raise RuntimeError("add_clause is only legal at decision level 0")
        lits: List[int] = []
        seen = set()
        values = self.values  # re-laid out in place by _ensure_var
        for lit in literals:
            self._ensure_var(abs(check_literal(lit)))
            if -lit in seen:
                return True  # tautology; vacuously added
            if lit in seen:
                continue
            seen.add(lit)
            value = values[lit]
            if value > 0:
                return True  # already satisfied at level 0
            if value < 0:
                continue  # falsified at level 0; drop the literal
            lits.append(lit)
        if not lits:
            self._unsat = True
            return False
        return self._add_unassigned(lits)

    def _add_unassigned(self, lits: List[int]) -> bool:
        """Add a clause of distinct literals, none assigned at level 0.

        A unit is enqueued and propagated; a longer clause is watched on
        its first two literals.  False once the formula is refuted.
        """
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return self._propagate() is None or self._mark_unsat()
        clause = WClause(lits)
        self.clauses.append(clause)
        self.watches[-clause[0]].append((clause, clause[1]))
        self.watches[-clause[1]].append((clause, clause[0]))
        return True

    def _mark_unsat(self) -> bool:
        self._unsat = True
        return False

    def add_formula(self, formula: Formula) -> bool:
        """Load all clauses of a CNF-only formula; False once it is refuted."""
        if formula.pb_constraints:
            raise ValueError("CDCLSolver is CNF-only; use repro.pb.PBSolver")
        return _load_clauses(self, formula)

    # --------------------------------------------------------- propagation
    def _enqueue(self, lit: int, reason) -> None:
        values = self.values
        values[lit] = 1
        values[-lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.trail_pos[var] = len(self.trail)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self):
        """Unit propagation over clauses; returns a conflict or None.

        Implied literals are enqueued inline (the body of ``_enqueue``);
        the decision level cannot change while propagating, so it is
        read once per call.  A subclass with constraints of its own (the
        PB engine) alternates this with its own propagation.
        """
        values = self.values
        watches = self.watches
        trail = self.trail
        level = self.level
        trail_pos = self.trail_pos
        reasons = self.reason
        current = len(self.trail_lim)
        start = qhead = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = -lit
            watchlist = watches[lit]
            j = 0
            unvisited = iter(watchlist)
            for watcher in unvisited:
                blocker = watcher[1]
                bval = values[blocker]
                if bval > 0:
                    # Blocker satisfies the clause: keep the watcher
                    # without touching the clause at all.
                    watchlist[j] = watcher
                    j += 1
                    continue
                clause = watcher[0]
                if clause.deleted:
                    continue  # lazily drain deleted clauses
                if len(clause) == 2:
                    # The blocker is the other literal: keep the watcher
                    # and imply the blocker, unless it is false too.
                    watchlist[j] = watcher
                    j += 1
                    if bval < 0:
                        if clause[0] == false_lit:
                            clause[0] = blocker
                            clause[1] = false_lit
                        break
                    first = blocker
                else:
                    # Normalize: the false literal sits at position 1.
                    if clause[0] == false_lit:
                        clause[0] = clause[1]
                        clause[1] = false_lit
                    first = clause[0]
                    if first != blocker:
                        fval = values[first]
                        if fval > 0:
                            watchlist[j] = (clause, first)
                            j += 1
                            continue
                    else:
                        fval = bval
                    # Look for a non-false replacement watch.
                    moved = False
                    for k in range(2, len(clause)):
                        other = clause[k]
                        if values[other] >= 0:
                            clause[1] = other
                            clause[k] = false_lit
                            watches[-other].append((clause, first))
                            moved = True
                            break
                    if moved:
                        continue
                    watchlist[j] = (clause, first)
                    j += 1
                    if fval < 0:
                        break
                values[first] = 1
                values[-first] = -1
                var = first if first > 0 else -first
                level[var] = current
                trail_pos[var] = len(trail)
                reasons[var] = clause
                trail.append(first)
            else:
                # No conflict: drop the slots of the watchers that left.
                del watchlist[j:]
                continue
            # Conflict: keep the watchers not visited yet and report.
            watchlist[j:] = list(unvisited)
            self.stats.propagations += qhead - start
            self.qhead = len(trail)
            return clause
        self.stats.propagations += qhead - start
        self.qhead = qhead
        return None

    # ----------------------------------------------------------- analysis
    def _analyze(self, conflict) -> (List[int], int, int):
        """First-UIP conflict analysis.

        Returns ``(learnt_clause, backtrack_level, lbd)`` with the
        asserting literal first.  ``conflict`` is a clause-like list of
        literals all currently false.  Marks variables in the
        solver-owned ``_seen`` array and clears every mark it set (the
        UIP, the tail and the minimization extras) before returning.
        """
        learnt: List[int] = []
        bumped: List[int] = []
        seen = self._seen
        level = self.level
        trail = self.trail
        reasons = self.reason
        plain = self._plain_reasons
        reason_of = self._reason_literals
        counter = 0
        p = 0
        reason_lits: Sequence[int] = conflict if plain else reason_of(conflict, 0)
        index = len(trail) - 1
        current = len(self.trail_lim)
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    bumped.append(v)
                    if level[v] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[index])]:
                index -= 1
            p = trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            v = abs(p)
            seen[v] = False
            reason_lits = reasons[v] if plain else reason_of(reasons[v], p)
        self.vsids.bump_all(bumped)
        tail = self._minimize(learnt, seen)
        # Clear every mark: the UIP, the tail before minimization, and
        # the extras minimization marked (only ``tail`` holds those).
        seen[abs(p)] = False
        for q in learnt:
            seen[abs(q)] = False
        # Backtrack level: highest level among the tail literals; the
        # LBD counts the distinct levels of the whole clause.
        bt = 0
        levels = {current}
        for q in tail:
            v = abs(q)
            seen[v] = False
            lvl = level[v]
            levels.add(lvl)
            if lvl > bt:
                bt = lvl
        return [-p] + tail, bt, len(levels)

    def _analyze_final(self, failed: int, assumptions: Sequence[int]) -> List[int]:
        """Final-conflict analysis for a falsified assumption literal.

        ``failed`` is an assumption whose complement is implied by the
        formula plus the *earlier* assumptions.  Walks the implication
        graph backwards from ``-failed`` and collects every assumption
        decision it depends on — MiniSat's ``analyzeFinal``.  Returns the
        failed subset in assumption order (always containing ``failed``);
        the formula is UNSAT whenever all literals of the subset are
        assumed together.
        """
        core = {failed}
        var = abs(failed)
        if self.level[var] > 0 and self.trail_lim:
            seen = {var}
            bottom = self.trail_lim[0]
            for idx in range(len(self.trail) - 1, bottom - 1, -1):
                lit = self.trail[idx]
                v = abs(lit)
                if v not in seen:
                    continue
                seen.discard(v)
                reason = self.reason[v]
                if reason is None:
                    # A decision above level 0 during assumption
                    # establishment is itself an assumption literal.
                    core.add(lit)
                else:
                    for q in self._reason_literals(reason, lit):
                        if self.level[abs(q)] > 0:
                            seen.add(abs(q))
        return [a for a in assumptions if a in core]

    def _reason_literals(self, reason, lit: int) -> Sequence[int]:
        """Literals of the reason for ``lit`` (hookable for PB reasons)."""
        return reason

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        """Local clause minimization: drop or substitute implied literals.

        A tail literal whose reason is covered by the clause (every
        other reason literal seen or level-0) is dropped, as in MiniSat.
        When exactly *one* reason literal blocks the drop, the tail
        literal is resolved away through its reason and replaced by that
        blocker.  Replacements deduplicate, which is what makes
        assumption-based queries cheap: the many ``x[v][c]`` literals a
        disabled color injects into a conflict all resolve through their
        guard clauses to the *same* activator literal, so learnt clauses
        stay short and are expressed over the selectors they depend on.
        """
        out = []
        extra = []
        reasons = self.reason
        level = self.level
        plain = self._plain_reasons
        for q in learnt:
            reason = reasons[abs(q)]
            if reason is None:
                out.append(q)
                continue
            blocker = 0
            redundant = True
            for r in (reason if plain else self._reason_literals(reason, -q)):
                if r == -q or seen[abs(r)] or level[abs(r)] == 0:
                    continue
                if blocker == 0:
                    blocker = r
                else:
                    redundant = False
                    break
            if not redundant:
                out.append(q)
            elif blocker != 0:
                seen[abs(blocker)] = True
                extra.append(blocker)
        return out + extra

    def _backtrack(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        bound = trail_lim[target_level]
        trail = self.trail
        values = self.values
        reasons = self.reason
        saved_phase = self.saved_phase
        vsids = self.vsids
        # Most unassigned variables never left the heap (only decisions
        # and variables popped as assigned did): re-insert the rest.
        queued = vsids._pos
        popped = trail[bound:]
        for lit in popped:
            values[lit] = 0
            values[-lit] = 0
            if lit > 0:
                var = lit
                saved_phase[var] = True
            else:
                var = -lit
                saved_phase[var] = False
            reasons[var] = None
            if queued[var] < 0:
                vsids.push(var)
        del trail[bound:]
        del trail_lim[target_level:]
        self.qhead = len(trail)
        if self._unwinds:
            self._on_backtrack(bound, popped)

    def _on_backtrack(self, trail_bound: int, popped: List[int]) -> None:
        """Hook for subclasses to unwind auxiliary state."""

    def _record_learnt(self, lits: List[int], lbd: int) -> Optional[WClause]:
        """Install a learnt clause and enqueue its asserting literal."""
        self.stats.learned += 1
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return None
        clause = WClause(lits, learnt=True, lbd=lbd)
        self.learned.append(clause)
        self.watches[-clause[0]].append((clause, clause[1]))
        self.watches[-clause[1]].append((clause, clause[0]))
        self._enqueue(clause[0], clause)
        return clause

    def _reduce_db(self) -> None:
        """Throw away the less useful half of the learnt clauses.

        Deletion is lazy: clauses are only marked ``deleted`` here, the
        propagation loop drains marked watchers as it visits them, and
        ``_compact_watches`` rebuilds the lists in one sweep once the
        dead-watcher debt rivals the live watcher count.
        """
        locked = set()
        for var in range(1, self.num_vars + 1):
            r = self.reason[var]
            if r is not None and isinstance(r, WClause) and r.learnt:
                locked.add(id(r))
        keep: List[WClause] = []
        candidates: List[WClause] = []
        for c in self.learned:
            if id(c) in locked or len(c) <= 2 or c.lbd <= 2:
                keep.append(c)
            else:
                candidates.append(c)
        candidates.sort(key=lambda c: (c.lbd, len(c)))
        cut = len(candidates) // 2
        for c in candidates[cut:]:
            c.deleted = True
            self.stats.deleted += 1
        self._dead_watchers += 2 * (len(candidates) - cut)
        self.learned = keep + candidates[:cut]
        if self.tracer is not None:
            self.tracer.db_reduce(
                self.tracer_id, len(candidates) - cut, len(self.learned))
        self.max_learned = int(self.max_learned * _LEARNED_GROWTH)
        live = 2 * (len(self.clauses) + len(self.learned)) + 2
        if self._dead_watchers * 2 >= live:
            self._compact_watches()

    def _compact_watches(self) -> None:
        """Drop watchers of deleted clauses from every watch list."""
        for watchlist in self.watches:
            if watchlist:
                watchlist[:] = [w for w in watchlist if not w[0].deleted]
        self._dead_watchers = 0

    # --------------------------------------------------------------- solve
    def solve(
        self,
        assumptions: Sequence[int] = (),
        time_limit: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> SolveResult:
        """Decide satisfiability under optional assumption literals.

        Assumptions occupy the first decision levels; restarts backtrack
        to the assumption prefix (never below), so their propagation
        survives every restart of the call.  On UNSAT the result carries
        ``failed_assumptions`` — the subset of assumptions in the final
        conflict (empty when the formula is UNSAT on its own).

        ``time_limit`` (seconds) bounds the search; on exhaustion the
        result status is :data:`UNKNOWN`.
        ``should_stop`` is a zero-argument predicate polled every few
        dozen conflicts (and every ~1k decisions): when it turns true
        the call abandons the query and returns :data:`UNKNOWN`, which
        is what makes one monster UNSAT query interruptible without
        killing the solver — learned clauses survive for the next call.
        An assumption that is not a nonzero ``int`` raises ``ValueError``.
        """
        for lit in assumptions:
            self._ensure_var(abs(check_literal(lit)))
        start = time.monotonic()
        run = SolverStats()
        if self._unsat:
            return SolveResult(UNSAT, stats=run, failed_assumptions=[])
        assume_level = len(assumptions)
        restarts = luby_sequence(self.restart_base)
        budget = next(restarts)
        conflicts_here = 0
        base = SolverStats()
        base.merge(self.stats)
        trail_lim = self.trail_lim
        is_assigned = self.values.__getitem__  # nonzero once assigned
        tracer = self.tracer
        if tracer is not None:
            tracer.solve_begin(self.tracer_id, len(assumptions))
            props_mark = self.stats.propagations
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self._unsat = True
                    result = self._finish(UNSAT, start, base, run)
                    result.failed_assumptions = []
                    return result
                learnt, bt, lbd = self._analyze(conflict)
                self._backtrack(bt)
                self._record_learnt(learnt, lbd)
                self.vsids.decay()
                if tracer is not None:
                    tracer.conflict(self.tracer_id, bt, lbd,
                                    self.stats.propagations - props_mark)
                    props_mark = self.stats.propagations
                if should_stop is not None and (conflicts_here & 63) == 0:
                    if should_stop():
                        return self._finish(UNKNOWN, start, base, run)
                if time_limit is not None and (self.stats.conflicts & 63) == 0:
                    # repro: allow[RPR007] engine hot loop: no per-conflict Deadline call
                    if time.monotonic() - start > time_limit:
                        return self._finish(UNKNOWN, start, base, run)
                if conflicts_here >= budget:
                    budget = conflicts_here + next(restarts)
                    self.stats.restarts += 1
                    if tracer is not None:
                        tracer.restart(self.tracer_id, conflicts_here)
                    # Assumption-aware restart: keep the assumption
                    # prefix (and everything it implied) assigned.
                    self._backtrack(min(assume_level, len(trail_lim)))
                if len(self.learned) > self.max_learned:
                    self._reduce_db()
                continue
            # No conflict: re-establish assumptions, then decide.
            if len(trail_lim) < assume_level:
                lit = assumptions[len(trail_lim)]
                value = self.values[lit]
                if value < 0:
                    core = self._analyze_final(lit, assumptions)
                    result = self._finish(UNSAT, start, base, run)
                    result.failed_assumptions = core
                    return result
                trail_lim.append(len(self.trail))
                if not value:
                    self._enqueue(lit, None)
                continue
            var = self.vsids.pop_unassigned(is_assigned)
            if var == 0:
                model = {v: self.values[v] > 0 for v in range(1, self.num_vars + 1)}
                result = self._finish(SAT, start, base, run)
                result.model = model
                return result
            self.stats.decisions += 1
            if (self.stats.decisions & 1023) == 0 and (
                (time_limit is not None
                 # repro: allow[RPR007] engine hot loop: no per-decision Deadline call
                 and time.monotonic() - start > time_limit)
                or (should_stop is not None and should_stop())
            ):
                # The popped decision variable was never enqueued, so
                # _finish's backtrack will not re-push it — do it here
                # or it would be lost to every later solve() call.
                self.vsids.push(var)
                return self._finish(UNKNOWN, start, base, run)
            trail_lim.append(len(self.trail))
            lit = var if self.saved_phase[var] else -var
            self._enqueue(lit, None)

    def _finish(
        self, status: str, start: float, base: SolverStats, run: SolverStats
    ) -> SolveResult:
        self._backtrack(0)
        run.conflicts = self.stats.conflicts - base.conflicts
        run.decisions = self.stats.decisions - base.decisions
        run.propagations = self.stats.propagations - base.propagations
        run.restarts = self.stats.restarts - base.restarts
        run.learned = self.stats.learned - base.learned
        run.deleted = self.stats.deleted - base.deleted
        run.time_seconds = time.monotonic() - start
        if self.tracer is not None:
            self.tracer.solve_end(
                self.tracer_id, status, run.conflicts, run.decisions,
                run.propagations, run.restarts, run.learned, run.deleted)
        registry = get_registry()
        registry.inc("solver_solve_total", status=status)
        registry.inc("solver_conflicts_total", run.conflicts)
        registry.inc("solver_decisions_total", run.decisions)
        registry.inc("solver_propagations_total", run.propagations)
        registry.inc("solver_restarts_total", run.restarts)
        registry.observe("solver_solve_conflicts", run.conflicts)
        registry.observe_seconds("solver_solve_seconds", run.time_seconds)
        return SolveResult(status, stats=run)


def _load_clauses(solver: CDCLSolver, formula: Formula) -> bool:
    """Copy ``formula``'s clauses into ``solver``; False at the first refutation.

    The solver first grows to the largest variable that ``num_vars``,
    a clause or a PB term names.  ``Formula.add_clause`` and
    ``add_clauses`` keep clauses canonical (distinct literals sorted by
    variable).  One of two or more literals, none assigned at level 0
    and no ``x`` next to ``-x``, becomes a :class:`WClause` and two
    watches as ``add_clause`` builds them; the rest go through it.
    """
    if solver.trail_lim:
        raise RuntimeError("add_formula is only legal at decision level 0")
    clauses = formula.clauses
    terms = chain.from_iterable(pb.terms for pb in formula.pb_constraints)
    solver._ensure_var(max(
        formula.num_vars,
        max(map(abs, map(itemgetter(-1), clauses)), default=0),
        max(map(abs, map(itemgetter(1), terms)), default=0),
    ))
    values, watches, store = solver.values, solver.watches, solver.clauses
    for lits in clauses:
        if len(lits) > 1:
            prev = 0
            for lit in lits:
                var = lit if lit > 0 else -lit
                if var == prev or values[var]:
                    break
                prev = var
            else:
                wclause = WClause(lits)
                store.append(wclause)
                first, second = lits[0], lits[1]
                watches[-first].append((wclause, second))
                watches[-second].append((wclause, first))
                continue
        if not solver.add_clause(lits):
            return False
    return True


def solve_formula(
    formula: Formula,
    assumptions: Sequence[int] = (),
    time_limit: Optional[float] = None,
) -> SolveResult:
    """One-shot satisfiability check of a CNF-only formula."""
    solver = CDCLSolver(num_vars=formula.num_vars)
    if not solver.add_formula(formula):
        return SolveResult(UNSAT)
    return solver.solve(assumptions=assumptions, time_limit=time_limit)
