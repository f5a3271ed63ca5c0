"""CNF preprocessing: the simplifications SAT solvers run before search.

The paper's solvers (Chaff lineage) resolve unit and pure literals
up-front; SBPs in particular create many unit clauses (the SC
construction is *only* unit clauses) that preprocessing folds into the
formula.  Implemented here:

* canonical intake: tautologies and duplicate clauses are dropped
  before any other rule runs (a tautology is never a valid subsumer —
  resolving on it returns the other clause unchanged); a formula's
  clauses are already canonical tuples (sorted by variable, no repeated
  literal: :meth:`~repro.core.formula.Formula.add_clause`), so intake
  re-sorts nothing;
* unit propagation to fixpoint (with the implied assignment returned),
  in waves over a literal -> clause index, touching only the clauses
  that hold a newly assigned variable;
* pure-literal elimination;
* clause subsumption and self-subsuming resolution (strengthening)
  over SatELite-style occurrence sets (Eén & Biere, SAT 2005), visiting
  only the clauses that can act: a clause acts only on clauses at least
  as long, so an index of the 3+ literal clauses and lookups among the
  binaries prove the others inert, and a pass where none can act
  returns at once;
* bounded variable elimination (NiVER-style: a variable is resolved
  away when doing so does not grow the clause set), with the removed
  clauses saved so models can be reconstructed.

``preprocess`` runs them in at most ten rounds and stops at the first
round that leaves the next one nothing to do (one that only propagated units).
The result is equisatisfiable, *not* equivalent: pure-literal
elimination and variable elimination discard models.  A model of the
reduced formula is lifted to a model of the original formula with
:meth:`PreprocessResult.extend_model`, which applies the forced
assignment and replays the variable-elimination stack in reverse.

``simplify_formula`` is the restricted, *model-preserving* subset
(tautology/duplicate removal, unit propagation with the units kept,
subsumption, strengthening) that is safe to run on mixed CNF+PB
formulas before handing them to the PB/ILP optimizers.  Its rounds
(at most ten) stop at the first subsumption pass that strengthens
nothing, which is the exact fixpoint.

Both take a ``deadline``: once it expires the running subsumption pass
keeps the clauses it has not visited and no further round runs, so the
output stays sound.  Every rule keeps a clause canonical (it only drops
literals, or sorts a resolvent), so both hand their clause tuples to the
output formula as they are.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass, field
from operator import neg
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.formula import Formula
from ..core.literals import var_of
from ..core.pbconstraint import PBConstraint
from ..resilience import Deadline

_MAX_ROUNDS = 10


@dataclass
class PreprocessResult:
    """Outcome of CNF preprocessing."""

    formula: Optional[Formula]  # None when UNSAT was derived
    forced: Dict[int, bool] = field(default_factory=dict)
    num_vars: int = 0
    units_propagated: int = 0
    pure_eliminated: int = 0
    subsumed: int = 0
    strengthened: int = 0
    tautologies_removed: int = 0
    duplicates_removed: int = 0
    variables_eliminated: int = 0
    # (var, clauses containing it at elimination time), in elimination
    # order; extend_model replays the stack in reverse.
    eliminated: List[Tuple[int, List[Tuple[int, ...]]]] = field(default_factory=list)

    @property
    def is_unsat(self) -> bool:
        return self.formula is None

    def extend_model(self, model: Optional[Dict[int, bool]] = None) -> Dict[int, bool]:
        """Lift a model of the reduced formula to one of the original.

        Applies the forced assignment, then replays the variable
        elimination stack in reverse: an eliminated variable is set so
        that every clause it was resolved out of is satisfied (such a
        value always exists when the rest of the assignment satisfies
        the resolvents).  Variables constrained by nothing default to
        False.  The returned assignment is total over ``num_vars``.
        """
        full: Dict[int, bool] = dict(model) if model else {}
        full.update(self.forced)
        # Total assignment first: the replay below may only see assigned
        # variables, otherwise two clauses can appear to demand opposite
        # phases (vars absent from the reduced formula are free).
        for v in range(1, self.num_vars + 1):
            full.setdefault(v, False)
        for var, saved in reversed(self.eliminated):
            required: Optional[bool] = None
            for clause in saved:
                phase: Optional[bool] = None
                satisfied = False
                for lit in clause:
                    v = var_of(lit)
                    if v == var:
                        phase = lit > 0
                        continue
                    if (lit > 0) == full.get(v, False):
                        satisfied = True
                        break
                if not satisfied and phase is not None:
                    required = phase
            if required is not None:
                full[var] = required
        return full


def _canonical_intake(
    clauses: Iterable[Tuple[int, ...]],
) -> Tuple[List[Tuple[int, ...]], int, int]:
    """Drop tautologies and duplicate clauses.

    Returns ``(clauses, #taut, #dup)``, the kept clauses in input
    order.  ``Formula.add_clause`` already sorted each clause and
    removed its repeated literals, so nothing is re-sorted here.
    """
    kept: List[Tuple[int, ...]] = []
    seen: Set[Tuple[int, ...]] = set()
    tautologies = 0
    duplicates = 0
    for clause in clauses:
        if len(set(map(abs, clause))) < len(clause):
            tautologies += 1
        elif clause in seen:
            duplicates += 1
        else:
            seen.add(clause)
            kept.append(clause)
    return kept, tautologies, duplicates


def _output_formula(num_vars: int, clauses: List[Tuple[int, ...]]) -> Formula:
    """The formula holding ``clauses``, taken as they are: every rule
    keeps a clause canonical (it only drops literals, or sorts a
    resolvent)."""
    out = Formula(num_vars=num_vars)
    out.clauses = clauses
    return out


def _propagate_units(
    clauses: List[Tuple[int, ...]], forced: Dict[int, bool]
) -> Tuple[Optional[List[Tuple[int, ...]]], int]:
    """Resolve unit clauses to fixpoint; returns (clauses, #units).

    Propagation runs in waves.  A wave assigns every unit clause of the
    current list in clause order, then shortens or drops only the
    clauses that hold a variable it assigned, found through a literal
    -> clause index built once per call; the clauses this leaves unit
    form the next wave.  No clause may be empty or mention a variable
    of ``forced`` (every caller's invariant).  UNSAT returns ``(None,
    #units assigned so far)``.
    """
    wave = [i for i, clause in enumerate(clauses) if len(clause) == 1]
    if not wave:
        return clauses, 0
    occ: Dict[int, List[int]] = defaultdict(list)
    for i, clause in enumerate(clauses):
        for lit in clause:
            occ[lit].append(i)
    current: List[Optional[Tuple[int, ...]]] = list(clauses)
    count = 0
    while wave:
        true_lits: List[int] = []
        for i in wave:
            lit = current[i][0]
            var = abs(lit)
            value = forced.get(var)
            if value is None:
                forced[var] = lit > 0
                count += 1
                true_lits.append(lit)
            elif value != (lit > 0):
                return None, count
        touched: Set[int] = set()
        for lit in true_lits:
            for i in occ.get(lit, ()):
                current[i] = None  # satisfied, the wave's own units included
            touched.update(occ.get(-lit, ()))
        wave = []
        for i in sorted(touched):
            clause = current[i]
            if clause is None:
                continue
            # Every assigned literal left in an unsatisfied clause is false.
            shorter = tuple([lit for lit in clause if abs(lit) not in forced])
            if not shorter:
                return None, count
            current[i] = shorter
            if len(shorter) == 1:
                wave.append(i)
    return [clause for clause in current if clause is not None], count


def _eliminate_pure(
    clauses: List[Tuple[int, ...]],
    forced: Dict[int, bool],
    frozen: frozenset = frozenset(),
) -> Tuple[List[Tuple[int, ...]], int]:
    """Fix pure literals (appearing in one phase only) to satisfy them.

    ``frozen`` variables are exempt: a later ``solve`` call may assume
    them in either phase, so fixing one to its pure phase (and deleting
    the clauses it satisfies) would silently change those queries'
    answers.  Activation selectors are the canonical example — they are
    pure (guards only mention them positively) yet every assumption
    negates them.
    """
    polarity: Dict[int, Set[bool]] = {}
    for clause in clauses:
        for lit in clause:
            polarity.setdefault(var_of(lit), set()).add(lit > 0)
    pure = {
        var: phases.pop()
        for var, phases in polarity.items()
        if len(phases) == 1 and var not in forced and var not in frozen
    }
    if not pure:
        return clauses, 0
    for var, phase in pure.items():
        forced[var] = phase
    kept = []
    for clause in clauses:
        if any(var_of(l) in pure and (l > 0) == pure[var_of(l)] for l in clause):
            continue
        kept.append(clause)
    return kept, len(pure)


def _acts_on(clause: Tuple[int, ...], other: Tuple[int, ...]) -> bool:
    """True when ``other`` holds ``clause``, or ``clause`` with one literal negated."""
    held = set(other)
    missing = [lit for lit in clause if lit not in held]
    return not missing or len(missing) == 1 and -missing[0] in held


def _acting_clauses(work: List[Tuple[int, ...]]) -> Set[Tuple[int, ...]]:
    """The clauses of ``work`` (distinct, tautology-free, sorted by
    length) that can subsume or strengthen another one.

    ``C`` acts on ``D`` only if ``D`` holds ``C``, or ``C`` with one
    literal negated, so ``|D| >= |C|``.  A clause of 3+ literals is
    checked exactly against those of 3+ literals that hold two of its
    first three literals.  A binary ``(a, b)`` acts if a clause holds
    ``{-a, b}``, ``{a, -b}`` or (another one) ``{a, b}``.  A tuple acts
    as its set: units, the empty clause and a tuple with a repeated
    literal always act.
    """
    lengths = list(map(len, work))
    lo, hi = bisect_left(lengths, 2), bisect_left(lengths, 3)
    acting = set(work[:lo])
    long_occ: Dict[int, Set[int]] = defaultdict(set)
    for i in range(hi, len(work)):
        for lit in work[i]:
            long_occ[lit].add(i)
    for i in range(hi, len(work)):
        c = work[i]
        first, second, third = long_occ[c[0]], long_occ[c[1]], long_occ[c[2]]
        near = (first & second) | (first & third) | (second & third)
        if len(set(c)) < len(c) or any(j != i and _acts_on(c, work[j]) for j in near):
            acting.add(c)
    pairs = set(work[lo:hi])
    both = pairs | {(b, a) for a, b in pairs}
    get, empty = long_occ.get, frozenset()
    for a, b in work[lo:hi]:
        if (a == b or (b, a) in pairs or (-a, b) in both or (a, -b) in both
                or (a in long_occ or b in long_occ) and not (
                    get(b, empty).isdisjoint(get(a, empty) | get(-a, empty))
                    and get(a, empty).isdisjoint(get(-b, empty)))):
            acting.add((a, b))
    return acting


def subsume_clauses(
    clauses: List[Tuple[int, ...]],
    deadline: Optional[Deadline] = None,
) -> Tuple[List[Tuple[int, ...]], int, int]:
    """Subsumption + self-subsuming resolution over occurrence sets.

    Each clause is indexed under every literal it contains, in a set of
    clause ids per literal (SatELite's occurrence lists).  Candidates
    are found by intersecting those sets in C, with no per-candidate
    Python test: the clauses that ``C`` subsumes are the intersection
    of ``occ[l]`` over ``C``'s literals, and the clauses it strengthens
    on ``lit`` (``C = A|lit`` drops ``~lit`` from ``D = B|~lit`` when
    ``A <= B``) are ``occ[-lit]`` intersected with ``occ[l]`` for every
    other literal ``l`` of ``C``.  Clauses are visited shortest first
    (ties by literal tuple) from a FIFO queue, and strengthened clauses
    are re-queued in the order a walk of ``occ[-lit]`` meets them, so a
    clause shrunk mid-pass still subsumes everything it can.
    Tautological input clauses are dropped: resolving on a tautology
    returns the other clause unchanged, so treating one as a subsumer
    or strengthener is unsound.  Duplicate clauses collapse into one.

    The queue visits only the clauses :func:`_acting_clauses` proves can
    act, and those strengthened on the way (a clause that cannot act at
    the start never can).  If none can act, the sorted clauses return.

    Returns ``(kept, subsumed, strengthened)``.  Strengthening can
    produce unit or empty clauses; callers must handle both.  Once
    ``deadline`` expires the pass stops early; every clause it has not
    yet visited is kept as it is, which is still sound.
    """
    work = sorted({c for c in clauses if set(c).isdisjoint(map(neg, c))})
    work.sort(key=len)  # stable: ordered by (len, literals)
    acting = _acting_clauses(work)
    if not acting:
        return work, 0, 0
    acts = list(map(acting.__contains__, work))
    alive = [True] * len(work)
    occ: Dict[int, Set[int]] = defaultdict(set)
    for idx, clause in enumerate(work):
        for lit in clause:
            occ[lit].add(idx)

    queue = deque(range(len(work)))
    queued = [True] * len(work)
    subsumed = 0
    strengthened = 0

    while queue:
        i = queue.popleft()
        queued[i] = False
        # Poll before each visit, and every 4096 clauses of a run that skips.
        if (acts[i] or not i % 4096) and deadline is not None and deadline.expired():
            break
        if not (acts[i] and alive[i]):
            continue
        clause = work[i]
        if not clause:
            continue  # empty clause: reported to the caller via `kept`
        # One occurrence set per distinct literal, in clause order.
        occ_of = {lit: occ[lit] for lit in clause}
        sets = list(occ_of.values())
        # Forward subsumption: kill every other clause holding all of
        # `clause`.  Kills commute; sorting them keeps set order out.
        supersets = sets[0].intersection(*sets[1:])
        supersets.discard(i)
        for j in sorted(supersets):
            alive[j] = False
            for lit in work[j]:
                occ[lit].discard(j)
        subsumed += len(supersets)
        # Self-subsuming resolution on each literal.
        for k, lit in enumerate(occ_of):
            complement = occ.get(-lit)
            if not complement:
                continue
            hits = complement.intersection(*sets[:k], *sets[k + 1:])
            if not hits:
                continue
            # The re-queue order steers the rest of the pass: take the
            # victims in the order a walk of occ[-lit] meets them.
            for j in [j for j in complement if j in hits]:
                complement.discard(j)
                work[j] = tuple([l for l in work[j] if l != -lit])
                strengthened += 1
                acts[j] = True
                if not queued[j]:
                    queue.append(j)
                    queued[j] = True
    kept = [c for c, keep in zip(work, alive) if keep]
    return kept, subsumed, strengthened


def _eliminate_variables(
    clauses: List[Tuple[int, ...]],
    stack: List[Tuple[int, List[Tuple[int, ...]]]],
    occ_limit: int = 12,
    frozen: frozenset = frozenset(),
) -> Tuple[Optional[List[Tuple[int, ...]]], int]:
    """Bounded variable elimination (NiVER): resolve out a variable when
    the non-tautological resolvents do not outnumber the clauses removed.

    Only variables with at most ``occ_limit`` total occurrences are
    tried — the O(1) gate keeps the pass linear-ish on large formulas,
    and high-occurrence variables almost never eliminate without growth
    anyway.  ``frozen`` variables are never candidates: incremental
    callers assume them per query (or add clauses over them later), so
    resolving them out of the formula would break those calls.
    Eliminated variables and their clauses are pushed on ``stack`` for
    model reconstruction.  Returns ``(clauses, #eliminated)``, or
    ``(None, #eliminated)`` when an empty resolvent proves UNSAT.
    """
    store: Dict[int, Tuple[int, ...]] = dict(enumerate(clauses))
    occ: Dict[int, Set[int]] = {}
    for idx, clause in store.items():
        for lit in clause:
            occ.setdefault(lit, set()).add(idx)
    next_id = len(store)
    eliminated = 0

    def cost(var: int) -> int:
        return len(occ.get(var, ())) * len(occ.get(-var, ()))

    candidates = sorted(
        {var_of(l) for c in store.values() for l in c} - frozen,
        key=lambda v: (cost(v), v),
    )
    for var in candidates:
        if len(occ.get(var, ())) + len(occ.get(-var, ())) > occ_limit:
            continue
        pos = sorted(occ.get(var, ()))
        neg = sorted(occ.get(-var, ()))
        if not pos or not neg:
            continue  # pure or absent: pure-literal elimination's job
        budget = len(pos) + len(neg)
        # Input clauses are tautology-free, so a resolvent is
        # tautological iff a literal of the positive side clashes with
        # one of the negative side — a single C-level set intersection.
        pos_sets = [frozenset(store[p]) - {var} for p in pos]
        neg_sets = [frozenset(store[n]) - {-var} for n in neg]
        neg_complements = [frozenset(-l for l in s) for s in neg_sets]
        resolvents: Set[frozenset] = set()
        too_big = False
        for pset in pos_sets:
            for nset, ncomp in zip(neg_sets, neg_complements):
                if pset & ncomp:
                    continue  # tautological resolvent
                resolvents.add(pset | nset)
                if len(resolvents) > budget:
                    too_big = True
                    break
            if too_big:
                break
        if too_big:
            continue
        removed = [store[idx] for idx in pos + neg]
        if frozenset() in resolvents:
            stack.append((var, removed))
            return None, eliminated + 1
        for idx in pos + neg:
            for lit in store[idx]:
                occ.get(lit, set()).discard(idx)
            del store[idx]
        ordered = sorted(
            tuple(sorted(r, key=lambda l: (var_of(l), l < 0))) for r in resolvents
        )
        for resolvent in ordered:
            store[next_id] = resolvent
            for lit in resolvent:
                occ.setdefault(lit, set()).add(next_id)
            next_id += 1
        stack.append((var, removed))
        eliminated += 1
    return [store[idx] for idx in sorted(store)], eliminated


def preprocess(
    formula: Formula,
    frozen: Iterable[int] = (),
    deadline: Optional[Deadline] = None,
) -> PreprocessResult:
    """Simplify a CNF-only formula; PB constraints are rejected.

    Returns an equisatisfiable formula plus the forced assignment, or
    ``formula=None`` when the input is UNSAT.  Models of the reduced
    formula are lifted to models of the input with
    :meth:`PreprocessResult.extend_model`.

    ``frozen`` names variables an incremental caller will later assume
    (or add clauses over): they are exempt from pure-literal elimination
    and variable elimination, and any top-level unit derived on one is
    *re-emitted as a unit clause* in the output — the solver must still
    learn the fact at level 0 so a contradicting assumption fails with a
    core, instead of silently "succeeding" on a formula the fact was
    substituted out of.

    Once ``deadline`` expires the remaining rules are skipped and the
    formula simplified so far, still equisatisfiable, is returned.
    """
    if formula.pb_constraints:
        raise ValueError("preprocess handles CNF-only formulas")
    frozen_set = frozenset(frozen)
    result = PreprocessResult(formula=None, num_vars=formula.num_vars)
    clauses, tautologies, duplicates = _canonical_intake(formula.clauses)
    result.tautologies_removed = tautologies
    result.duplicates_removed = duplicates
    forced: Dict[int, bool] = {}
    for _ in range(_MAX_ROUNDS):
        clauses_or_none, units = _propagate_units(clauses, forced)
        result.units_propagated += units
        if clauses_or_none is None:
            return result  # UNSAT
        clauses = clauses_or_none
        clauses, pure = _eliminate_pure(clauses, forced, frozen_set)
        result.pure_eliminated += pure
        clauses, subsumed, strengthened = subsume_clauses(clauses, deadline)
        result.subsumed += subsumed
        result.strengthened += strengthened
        if () in clauses:
            return result  # strengthening emptied a clause: UNSAT
        if deadline is not None and deadline.expired():
            break
        clauses_or_none, removed = _eliminate_variables(
            clauses, result.eliminated, frozen=frozen_set
        )
        result.variables_eliminated += removed
        if clauses_or_none is None:
            return result  # empty resolvent: UNSAT
        clauses = clauses_or_none
        # Units were propagated to fixpoint at the top of this round, so
        # a round that only propagated leaves the next one nothing to do.
        if not (pure or subsumed or strengthened or removed):
            break
    units = [(var if forced[var] else -var,) for var in sorted(frozen_set) if var in forced]
    result.formula = _output_formula(formula.num_vars, units + clauses)
    result.forced = forced
    return result


@dataclass
class SimplifyStats:
    """What :func:`simplify_formula` did to the clause database.

    The pipeline's ``simplify`` stage reports every field as a stage
    detail, summed over the kernel components of a run.
    """

    clauses_before: int = 0
    clauses_after: int = 0
    tautologies_removed: int = 0
    duplicates_removed: int = 0
    units_propagated: int = 0
    subsumed: int = 0
    strengthened: int = 0
    pb_tightened: int = 0
    pb_satisfied: int = 0


def substitute_forced_into_pb(
    constraints, forced: Dict[int, bool], stats: Optional[SimplifyStats] = None
):
    """Substitute a forced assignment directly into PB constraints.

    A term whose literal is forced true moves its coefficient onto the
    bound; a term forced false contributes nothing and is dropped.  The
    result is the tighter, smaller constraint set the PB engines load
    directly, instead of every solver re-deriving the substitution from
    re-added unit constraints.  Constraints that become variable-free
    are checked outright: a satisfied one is dropped, a violated one
    proves UNSAT (``None`` is returned).
    """
    out = []
    for pb in constraints:
        new_terms = []
        bound = pb.bound
        changed = False
        for coef, lit in pb.terms:
            value = forced.get(var_of(lit))
            if value is None:
                new_terms.append((coef, lit))
                continue
            changed = True
            if (lit > 0) == value:
                bound -= coef
        if not changed:
            out.append(pb)
            continue
        if stats is not None:
            stats.pb_tightened += 1
        if not new_terms:
            lhs = 0
            ok = (
                lhs >= bound if pb.relation == ">="
                else lhs <= bound if pb.relation == "<="
                else lhs == bound
            )
            if not ok:
                return None
            if stats is not None:
                stats.pb_satisfied += 1
            continue
        out.append(PBConstraint(new_terms, pb.relation, bound))
    return out


def simplify_formula(
    formula: Formula, deadline: Optional[Deadline] = None
) -> Tuple[Optional[Formula], SimplifyStats]:
    """Model-preserving clause simplification for mixed CNF+PB formulas.

    Runs the subset of the preprocessing rules that keeps the formula
    *logically equivalent* over the original variables — tautology and
    duplicate removal, unit propagation (the derived units stay in the
    output as unit clauses so every solver still sees them), clause
    subsumption and self-subsuming resolution.  Pure-literal and
    variable elimination are deliberately excluded: variables shared
    with PB constraints or the objective cannot be discarded.

    Rounds of propagation then subsumption run until a subsumption
    pass strengthens nothing: subsumption alone creates no unit and
    one pass removes every clause a kept clause subsumes, so another
    round would change nothing.

    Forced literals (from unit propagation) are additionally
    *substituted into the PB constraints*, tightening their degrees and
    dropping dead terms, instead of leaving every solver to re-derive
    the substitution from the re-emitted unit clauses.  The units are
    still kept in the output, so the conjunction remains logically
    equivalent over the original variables and models decode unchanged.

    ``deadline`` bounds the subsumption passes: once it expires the
    current pass keeps every clause it has not visited and no further
    round runs, so the output is still equivalent to the input.

    The objective and ``num_vars`` are carried over untouched.  Returns
    ``(formula, stats)``; the formula is ``None`` when the clause
    database (or a PB constraint under the forced assignment) is UNSAT.
    """
    stats = SimplifyStats(clauses_before=len(formula.clauses))
    clauses, tautologies, duplicates = _canonical_intake(formula.clauses)
    stats.tautologies_removed = tautologies
    stats.duplicates_removed = duplicates
    forced: Dict[int, bool] = {}
    for _ in range(_MAX_ROUNDS):
        clauses_or_none, units = _propagate_units(clauses, forced)
        stats.units_propagated += units
        if clauses_or_none is None:
            return None, stats
        clauses = clauses_or_none
        clauses, subsumed, strengthened = subsume_clauses(clauses, deadline)
        stats.subsumed += subsumed
        stats.strengthened += strengthened
        if () in clauses:
            return None, stats
        if not strengthened or (deadline is not None and deadline.expired()):
            break
    pb_constraints = substitute_forced_into_pb(
        formula.pb_constraints, forced, stats
    )
    if pb_constraints is None:
        return None, stats
    units = [(var if forced[var] else -var,) for var in sorted(forced)]
    out = _output_formula(formula.num_vars, units + clauses)
    out.pb_constraints = pb_constraints
    out.objective = formula.objective
    out.objective_sense = formula.objective_sense
    stats.clauses_after = len(out.clauses)
    return out, stats
