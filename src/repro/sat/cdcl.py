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

* watch lists live in a flat list indexed by literal
  (``2*var`` / ``2*var + 1``), not a dict — no hashing on the hottest
  loop in the solver;
* each watcher is a ``(clause, blocker)`` pair; a true blocker literal
  satisfies the clause without touching it (MiniSat's cached-literal
  optimization);
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
  level once per call;
* conflict analysis marks variables in one solver-owned ``_seen`` array
  and clears exactly the marks it set, so no conflict allocates an
  array over all variables;
* the popped trail slice is built on backtrack only for a subclass that
  unwinds state of its own (the PB engine's slack counters).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.formula import Formula
from ..obs.metrics import get_registry
from .luby import luby_sequence
from .result import SAT, UNKNOWN, UNSAT, SolveResult, SolverStats
from .vsids import VSIDS


def _widx(lit: int) -> int:
    """Index of a literal in the flat watch table (2v / 2v+1)."""
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


class WClause(list):
    """A solver-internal clause: a literal list plus learning metadata.

    Subclassing ``list`` keeps the watched-literal loop on plain indexed
    access while allowing the clause-deletion policy to tag clauses with
    their LBD (literal block distance), learnt status, and the lazy
    ``deleted`` mark that watch lists drain on their own schedule.
    """

    __slots__ = ("learnt", "lbd", "deleted")

    def __init__(self, lits: Iterable[int], learnt: bool = False, lbd: int = 0):
        super().__init__(lits)
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
        phase_default: bool = False,
        max_learned_start: int = 4000,
        max_learned_growth: float = 1.1,
    ):
        self.num_vars = 0
        self.values: List[int] = [0]  # 1 true, -1 false, 0 unassigned; index = var
        self.level: List[int] = [0]
        self.trail_pos: List[int] = [0]
        self.reason: List[Optional[WClause]] = [None]
        self.saved_phase: List[bool] = [phase_default]
        self._phase_default = phase_default
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        # Flat watch table: watches[_widx(lit)] holds (clause, blocker)
        # pairs for clauses in which ``-lit`` is a watched literal.
        self.watches: List[list] = [[], []]
        self.clauses: List[WClause] = []
        self.learned: List[WClause] = []
        self.vsids = VSIDS(0, decay=decay)
        # Conflict-analysis marks, all False between _analyze calls.
        self._seen: List[bool] = [False]
        # Only a subclass that unwinds state of its own (the PB engine's
        # slack counters) needs the popped trail slice on backtrack.
        self._unwinds = type(self)._on_backtrack is not CDCLSolver._on_backtrack
        self.restart_base = restart_base
        self.max_learned = max_learned_start
        self.max_learned_growth = max_learned_growth
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
        while self.num_vars < var:
            self.num_vars += 1
            self.values.append(0)
            self.level.append(0)
            self.trail_pos.append(0)
            self.reason.append(None)
            self.saved_phase.append(self._phase_default)
            self._seen.append(False)
            self.watches.append([])
            self.watches.append([])
        self.vsids.grow(self.num_vars)

    def value_of(self, lit: int):
        """Current value of a literal: True / False / None."""
        v = self.values[lit] if lit > 0 else -self.values[-lit]
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
        ``solve`` calls, which always return at level 0).
        """
        if self.trail_lim:
            raise RuntimeError("add_clause is only legal at decision level 0")
        lits: List[int] = []
        seen = set()
        values = self.values  # grown in place by _ensure_var
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a literal")
            self._ensure_var(abs(lit))
            if -lit in seen:
                return True  # tautology; vacuously added
            if lit in seen:
                continue
            seen.add(lit)
            value = values[lit] if lit > 0 else -values[-lit]
            if value > 0:
                return True  # already satisfied at level 0
            if value < 0:
                continue  # falsified at level 0; drop the literal
            lits.append(lit)
        if not lits:
            self._unsat = True
            return False
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return self._propagate() is None or self._mark_unsat()
        clause = WClause(lits)
        self.clauses.append(clause)
        self.watches[_widx(-clause[0])].append((clause, clause[1]))
        self.watches[_widx(-clause[1])].append((clause, clause[0]))
        return True

    def _mark_unsat(self) -> bool:
        self._unsat = True
        return False

    def add_formula(self, formula: Formula) -> bool:
        """Load all clauses of a CNF-only formula."""
        if formula.pb_constraints:
            raise ValueError("CDCLSolver is CNF-only; use repro.pb.PBSolver")
        self._ensure_var(formula.num_vars)
        ok = True
        for clause in formula.clauses:
            ok = self.add_clause(clause.literals) and ok
        return ok

    # --------------------------------------------------------- propagation
    def _enqueue(self, lit: int, reason) -> None:
        var = abs(lit)
        self.values[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.trail_pos[var] = len(self.trail)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self):
        """Propagate to fixpoint; returns a conflicting constraint or None.

        Alternates clause (watched-literal) propagation with the
        ``_propagate_extra`` hook until neither produces new assignments.
        """
        while True:
            conflict = self._propagate_clauses()
            if conflict is not None:
                return conflict
            conflict = self._propagate_extra()
            if conflict is not None:
                self.qhead = len(self.trail)
                return conflict
            if self.qhead >= len(self.trail):
                return None

    def _propagate_clauses(self) -> Optional[WClause]:
        """Unit propagation over clauses; returns a conflict or None.

        Implied literals are enqueued inline (the body of ``_enqueue``);
        the decision level cannot change while propagating, so it is
        read once per call.
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
            watchlist = watches[(lit << 1) if lit > 0 else ((-lit) << 1) | 1]
            i = j = 0
            n = len(watchlist)
            while i < n:
                watcher = watchlist[i]
                i += 1
                blocker = watcher[1]
                bval = values[blocker] if blocker > 0 else -values[-blocker]
                if bval > 0:
                    # Blocker satisfies the clause: keep the watcher
                    # without touching the clause at all.
                    watchlist[j] = watcher
                    j += 1
                    continue
                clause = watcher[0]
                if clause.deleted:
                    continue  # lazily drain deleted clauses
                # Normalize: the false literal sits at position 1.
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                if first != blocker:
                    fval = values[first] if first > 0 else -values[-first]
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
                    oval = values[other] if other > 0 else -values[-other]
                    if oval >= 0:
                        clause[1] = other
                        clause[k] = false_lit
                        oidx = ((other << 1) | 1) if other > 0 else ((-other) << 1)
                        watches[oidx].append((clause, first))
                        moved = True
                        break
                if moved:
                    continue
                watchlist[j] = (clause, first)
                j += 1
                if fval < 0:
                    # Conflict: keep the remaining watchers and report.
                    while i < n:
                        watchlist[j] = watchlist[i]
                        j += 1
                        i += 1
                    del watchlist[j:]
                    self.stats.propagations += qhead - start
                    self.qhead = len(trail)
                    return clause
                if first > 0:
                    var = first
                    values[var] = 1
                else:
                    var = -first
                    values[var] = -1
                level[var] = current
                trail_pos[var] = len(trail)
                reasons[var] = clause
                trail.append(first)
            del watchlist[j:]
        self.stats.propagations += qhead - start
        self.qhead = qhead
        return None

    def _propagate_extra(self):
        """Hook for subclasses (PB propagation); None means no conflict."""
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
        seen = self._seen
        level = self.level
        trail = self.trail
        bump = self.vsids.bump
        reason_of = self._reason_literals
        counter = 0
        p = 0
        reason_lits: Sequence[int] = reason_of(conflict, 0)
        index = len(trail) - 1
        current = len(self.trail_lim)
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    bump(v)
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
            seen[abs(p)] = False
            reason_lits = reason_of(self.reason[abs(p)], p)
        tail = self._minimize(learnt, seen)
        # Clear every mark: the UIP, the tail before minimization, and
        # the extras minimization marked (only ``tail`` holds those).
        seen[abs(p)] = False
        for q in learnt:
            seen[abs(q)] = False
        # Backtrack level: highest level among the tail literals.
        bt = 0
        for q in tail:
            v = abs(q)
            seen[v] = False
            lvl = level[v]
            if lvl > bt:
                bt = lvl
        levels = {level[abs(q)] for q in tail}
        levels.add(current)
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
        for q in learnt:
            reason = self.reason[abs(q)]
            if reason is None:
                out.append(q)
                continue
            blocker = 0
            redundant = True
            for r in self._reason_literals(reason, -q):
                if r == -q or seen[abs(r)] or self.level[abs(r)] == 0:
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
        for k in range(bound, len(trail)):
            lit = trail[k]
            if lit > 0:
                var = lit
                saved_phase[var] = True
            else:
                var = -lit
                saved_phase[var] = False
            values[var] = 0
            reasons[var] = None
            if queued[var] < 0:
                vsids.push(var)
        popped = trail[bound:] if self._unwinds else []
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
        self.watches[_widx(-clause[0])].append((clause, clause[1]))
        self.watches[_widx(-clause[1])].append((clause, clause[0]))
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
        self.max_learned = int(self.max_learned * self.max_learned_growth)
        live = 2 * (len(self.clauses) + len(self.learned)) + 2
        if self._dead_watchers * 2 >= live:
            self._compact_watches()

    def _compact_watches(self) -> None:
        """Drop watchers of deleted clauses from every watch list."""
        for watchlist in self.watches:
            if watchlist:
                watchlist[:] = [w for w in watchlist if not w[0].deleted]
        self._dead_watchers = 0

    def watcher_count(self) -> int:
        """Total watcher pairs in the watch table (incl. not-yet-drained)."""
        return sum(len(w) for w in self.watches)

    def collect_level0_satisfied(self) -> Dict[str, int]:
        """Garbage-collect every clause satisfied by the level-0 assignment.

        Incremental callers retire whole clause groups by adding level-0
        units (a chromatic descent disabling a color permanently): the
        group's clauses are all satisfied by the propagated facts, but
        they still occupy the clause lists and their watchers are still
        visited.  This sweep deletes them — problem clauses and learnt
        clauses alike — and compacts the watch lists in one pass.

        Level-0 facts never participate in conflict analysis again, so
        the reason pointers of root assignments are dropped too (a
        deleted reason clause must not stay pinned).  Must be called at
        decision level 0 (between ``solve`` calls).  Returns the removal
        counts: ``{"clauses", "learned", "watchers"}``.
        """
        if self.trail_lim:
            raise RuntimeError(
                "collect_level0_satisfied is only legal at decision level 0"
            )
        values = self.values

        def satisfied(clause: WClause) -> bool:
            for lit in clause:
                if (values[lit] if lit > 0 else -values[-lit]) > 0:
                    return True
            return False

        removed = {"clauses": 0, "learned": 0, "watchers": 0}
        for name, pool in (("clauses", self.clauses), ("learned", self.learned)):
            keep: List[WClause] = []
            for clause in pool:
                if satisfied(clause):
                    clause.deleted = True
                    removed[name] += 1
                else:
                    keep.append(clause)
            pool[:] = keep
        for lit in self.trail:
            self.reason[abs(lit)] = None
        before = self.watcher_count()
        self._compact_watches()
        removed["watchers"] = before - self.watcher_count()
        self.stats.deleted += removed["clauses"] + removed["learned"]
        if self.tracer is not None:
            self.tracer.gc_sweep(self.tracer_id, removed["clauses"],
                                 removed["learned"], removed["watchers"])
        return removed

    # --------------------------------------------------------------- solve
    def solve(
        self,
        assumptions: Sequence[int] = (),
        time_limit: Optional[float] = None,
        conflict_limit: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> SolveResult:
        """Decide satisfiability under optional assumption literals.

        Assumptions occupy the first decision levels; restarts backtrack
        to the assumption prefix (never below), so their propagation
        survives every restart of the call.  On UNSAT the result carries
        ``failed_assumptions`` — the subset of assumptions in the final
        conflict (empty when the formula is UNSAT on its own).

        ``time_limit`` (seconds) and ``conflict_limit`` bound the search;
        on exhaustion the result status is :data:`UNKNOWN`.
        ``should_stop`` is a zero-argument predicate polled every few
        dozen conflicts (and every ~1k decisions): when it turns true
        the call abandons the query and returns :data:`UNKNOWN`, which
        is what makes one monster UNSAT query interruptible without
        killing the solver — learned clauses survive for the next call.
        """
        start = time.monotonic()
        run = SolverStats()
        if self._unsat:
            return SolveResult(UNSAT, stats=run, failed_assumptions=[])
        for lit in assumptions:
            self._ensure_var(abs(lit))
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
                self._on_conflict()
                if tracer is not None:
                    tracer.conflict(self.tracer_id, bt, lbd,
                                    self.stats.propagations - props_mark)
                    props_mark = self.stats.propagations
                if conflict_limit is not None and conflicts_here >= conflict_limit:
                    return self._finish(UNKNOWN, start, base, run)
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
                value = self.value_of(lit)
                if value is False:
                    core = self._analyze_final(lit, assumptions)
                    result = self._finish(UNSAT, start, base, run)
                    result.failed_assumptions = core
                    return result
                trail_lim.append(len(self.trail))
                if value is None:
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

    def _on_conflict(self) -> None:
        """Hook for subclasses (e.g. extra learning)."""

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


def solve_formula(
    formula: Formula,
    assumptions: Sequence[int] = (),
    time_limit: Optional[float] = None,
    conflict_limit: Optional[int] = None,
) -> SolveResult:
    """One-shot satisfiability check of a CNF-only formula."""
    solver = CDCLSolver(num_vars=formula.num_vars)
    if not solver.add_formula(formula):
        return SolveResult(UNSAT)
    return solver.solve(
        assumptions=assumptions, time_limit=time_limit, conflict_limit=conflict_limit
    )
