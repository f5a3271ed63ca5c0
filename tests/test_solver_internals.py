"""Stress tests for solver internals: restarts, clause-DB reduction,
phase saving, VSIDS order, pinned search trajectories, clause-group
garbage collection, assumption-aware preprocessing, and the
preprocessing + search integration."""

import random

import pytest

from repro.api import BudgetedOptimize, ChromaticProblem, Pipeline
from repro.coloring.sat_pipeline import IncrementalKSearch
from repro.core.formula import Formula
from repro.experiments.instances import get_instance
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.sat.brute import brute_force_solve
from repro.sat.cdcl import CDCLSolver, solve_formula
from repro.sat.factory import reset_solver_factory, set_solver_factory
from repro.sat.preprocessing import preprocess
from repro.sat.result import SAT, UNSAT
from repro.sat.vsids import VSIDS


def _random_cnf(seed, n, m, width=3):
    rng = random.Random(seed)
    f = Formula(num_vars=n)
    for _ in range(m):
        f.add_clause([
            rng.randint(1, n) * rng.choice([1, -1])
            for _ in range(rng.randint(1, width))
        ])
    return f


def _pigeonhole(pigeons, holes):
    f = Formula()
    x = {(p, h): f.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        f.add_clause([x[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                f.add_clause([-x[p1, h], -x[p2, h]])
    return f


def test_db_reduction_triggers_and_stays_correct():
    # Small DB cap forces many reductions; answers must stay correct.
    for seed in range(8):
        f = _random_cnf(seed, 12, 60)
        solver = CDCLSolver(max_learned_start=5, max_learned_growth=1.0)
        ok = solver.add_formula(f)
        result = solver.solve() if ok else None
        status = result.status if ok else "UNSAT"
        assert status == brute_force_solve(f).status, seed
        if ok and solver.stats.learned > 10:
            assert solver.stats.deleted >= 0


def test_aggressive_restarts_stay_correct():
    for seed in range(8):
        f = _random_cnf(seed + 100, 10, 45)
        solver = CDCLSolver(restart_base=1)  # restart after every conflict
        ok = solver.add_formula(f)
        status = solver.solve().status if ok else "UNSAT"
        assert status == brute_force_solve(f).status, seed


def test_phase_default_true_still_correct():
    for seed in range(6):
        f = _random_cnf(seed + 200, 10, 40)
        solver = CDCLSolver(phase_default=True)
        ok = solver.add_formula(f)
        status = solver.solve().status if ok else "UNSAT"
        assert status == brute_force_solve(f).status, seed


def test_vsids_pop_order():
    v = VSIDS(3)
    v.bump(2)
    v.bump(2)
    v.bump(3)
    assigned = set()
    assert v.pop_unassigned(lambda x: x in assigned) == 2
    assigned.add(2)
    v.push(2)  # pushed back (e.g. on backtrack) but still assigned
    assert v.pop_unassigned(lambda x: x in assigned) == 3
    assigned.update((3, 1))
    v.push(3)
    assert v.pop_unassigned(lambda x: x in assigned) == 0


def test_vsids_rescale():
    v = VSIDS(2)
    for _ in range(2000):
        v.bump(1)
        v.decay()
    # Activities stay finite and ordering is preserved.
    assert v.activity[1] > v.activity[2]
    assert v.pop_unassigned(lambda x: False) == 1


def test_decisions_follow_vsids_argmax_across_rescales():
    """Every decision is the unassigned variable of highest activity.

    At decay 0.7 the first rescale comes after ~640 conflicts, well
    inside the proof, so the order is checked on both sides of it.
    """
    solver = CDCLSolver(decay=0.7)
    assert solver.add_formula(_pigeonhole(7, 6))
    vsids = solver.vsids
    pop = vsids.pop_unassigned
    off_argmax = []

    def checked_pop(is_assigned):
        # Highest activity, lowest index among equals.
        free = [v for v in range(1, solver.num_vars + 1) if solver.values[v] == 0]
        expected = min(free, key=lambda v: (-vsids.activity[v], v), default=0)
        var = pop(is_assigned)
        if var != expected:
            off_argmax.append((solver.stats.conflicts, var, expected))
        return var

    vsids.pop_unassigned = checked_pop
    result = solver.solve()
    assert result.is_unsat
    # Without a rescale the bump increment would have overflowed the limit.
    assert (1 / 0.7) ** result.stats.conflicts > VSIDS.RESCALE_LIMIT
    assert off_argmax == []


def test_vsids_matches_bruteforce_oracle_through_rescales():
    """Random bump/decay/push/pop sequences against a brute-force model.

    The model keeps its own activities (the same exponential-bump
    arithmetic) and the set of queued variables; a pop drops every
    queued variable ahead of the first unassigned one.  Decay 0.5
    rescales every ~330 decays.  All variables are bumped early, then
    only a hot few: the cold ones underflow to a tie at zero on the
    fourth rescale, where the lowest index must come first again.
    Right after every rescale the whole heap is drained in order,
    checked and pushed back.
    """
    rng = random.Random(2024)
    n, hot, decay = 32, 6, 0.5
    v = VSIDS(n, decay=decay)
    activity = [0.0] * (n + 1)
    inc = 1.0
    queued = set(range(1, n + 1))
    assigned = set()
    rescales = 0

    def model_order():
        return sorted(queued, key=lambda x: (-activity[x], x))

    for step in range(5000):
        op = rng.random()
        if op < 0.45:
            var = rng.randint(1, n) if step < 600 else rng.randint(1, hot)
            v.bump(var)
            if activity[var] + inc > VSIDS.RESCALE_LIMIT:
                scale = 1.0 / VSIDS.RESCALE_LIMIT
                activity = [a * scale for a in activity]
                inc *= scale
                rescales += 1
                activity[var] += inc
                expected = model_order()
                drained = []
                while True:
                    var = v.pop_unassigned(lambda x: False)
                    if not var:
                        break
                    drained.append(var)
                assert drained == expected, (step, rescales)
                for var in drained:
                    v.push(var)
            else:
                activity[var] += inc
        elif op < 0.8:
            v.decay()
            inc /= decay
        elif op < 0.95:
            var = rng.randint(1, n)
            assigned.discard(var)
            v.push(var)
            queued.add(var)
        else:
            got = v.pop_unassigned(lambda x: x in assigned)
            expected = 0
            for var in model_order():
                queued.discard(var)
                if var not in assigned:
                    expected = var
                    break
            assert got == expected, step
            if got:
                assigned.add(got)
        assert v.activity == activity, step
    assert rescales >= 4
    # The cold variables were all bumped, and now tie at zero.
    assert all(activity[x] == 0.0 for x in range(hot + 1, n + 1))


def test_reseeding_vsids_keeps_the_solvers_decay():
    """The K-search resets VSIDS per query but keeps its decay factor."""
    built = []

    def factory(**kwargs):
        solver = CDCLSolver(decay=0.8, **kwargs)
        built.append(solver)
        return solver

    set_solver_factory(factory)
    try:
        result = (Pipeline()
                  .solve(backend="cdcl-incremental", time_limit=300)
                  .run(ChromaticProblem(get_instance("myciel4").graph())))
    finally:
        reset_solver_factory()
    assert result.status == "OPTIMAL" and result.chromatic_number == 5
    assert built and all(s.vsids._decay == 0.8 for s in built)


# ------------------------------------------------------- search trajectory
# Exact counts, captured before the indexed VSIDS heap and the
# allocation-free conflict path landed: a change meant to be a pure
# speed-up must make the same decisions.  The fixtures stay below the
# first VSIDS rescale (~4.4k conflicts on one heuristic at decay 0.95),
# where the decision order is the exact activity argmax.
def _counts(stats):
    return stats.conflicts, stats.decisions, stats.propagations


def test_pigeonhole_trajectory():
    result = solve_formula(_pigeonhole(7, 6))
    assert result.is_unsat
    assert _counts(result.stats) == (1106, 1412, 15439)


@pytest.mark.parametrize("strategy,queries,counts", [
    ("linear", [(4, "UNSAT")], (1882, 2254, 46848)),
    ("binary", [(3, "UNSAT"), (4, "UNSAT")], (1749, 2097, 41977)),
])
def test_incremental_descent_trajectory(strategy, queries, counts):
    result = (Pipeline()
              .solve(backend="cdcl-incremental", strategy=strategy,
                     time_limit=300)
              .run(ChromaticProblem(get_instance("myciel4").graph())))
    assert result.status == "OPTIMAL" and result.chromatic_number == 5
    assert result.queries == queries
    assert _counts(result.stats) == counts


@pytest.mark.parametrize("backend,instance,counts", [
    ("pb-pbs2", "queen5_5", (1, 24, 978)),
    ("pb-pbs2", "myciel4", (147, 250, 5118)),
    ("pb-pueblo", "queen5_5", (1, 24, 980)),
    ("pb-pueblo", "myciel4", (212, 338, 8983)),
])
def test_pb_budgeted_optimize_trajectory(backend, instance, counts):
    result = (Pipeline()
              .symmetry(sbp_kind="nu+sc")
              .solve(backend=backend, time_limit=300)
              .run(BudgetedOptimize(get_instance(instance).graph(), 20)))
    assert result.status == "OPTIMAL" and result.num_colors == 5
    assert _counts(result.stats) == counts


def test_preprocess_then_solve_agrees():
    for seed in range(15):
        f = _random_cnf(seed + 300, 9, 35)
        expected = brute_force_solve(f).status
        pre = preprocess(f)
        if pre.is_unsat:
            assert expected == "UNSAT", seed
            continue
        result = solve_formula(pre.formula)
        assert result.status == expected, seed


def test_stats_populated():
    f = _random_cnf(7, 10, 50)
    solver = CDCLSolver()
    if solver.add_formula(f):
        result = solver.solve()
        assert result.stats.propagations > 0
        assert result.stats.time_seconds >= 0.0


def test_solver_reuse_after_unsat_result():
    solver = CDCLSolver()
    solver.add_clause([1, 2])
    assert solver.solve(assumptions=[-1, -2]).is_unsat
    assert solver.solve().is_sat  # UNSAT was only under assumptions


# ---------------------------------------------------------------- clause GC
def test_collect_level0_satisfied_drops_clauses_and_watchers():
    solver = CDCLSolver(num_vars=6)
    solver.add_clause([1, 2])
    solver.add_clause([1, 3, 4])
    solver.add_clause([-2, 5])
    solver.add_clause([3, -5, 6])
    watchers_before = solver.watcher_count()
    assert len(solver.clauses) == 4
    solver.add_clause([1])  # satisfies the first two clauses at level 0
    removed = solver.collect_level0_satisfied()
    assert removed["clauses"] == 2
    assert removed["watchers"] == 4
    assert len(solver.clauses) == 2
    assert solver.watcher_count() == watchers_before - 4
    # The swept solver still answers correctly.
    result = solver.solve(assumptions=[2])
    assert result.is_sat and result.model[5]


def test_collect_level0_requires_root_level():
    solver = CDCLSolver(num_vars=2)
    solver.add_clause([1, 2])
    solver.trail_lim.append(len(solver.trail))
    solver._enqueue(1, None)
    with pytest.raises(RuntimeError, match="level 0"):
        solver.collect_level0_satisfied()
    solver._backtrack(0)


def test_permanent_shrink_garbage_collects_color_groups():
    """Disabling colors permanently must reclaim their clause groups:
    clause count and watcher count actually drop, and later queries on
    the shrunk solver stay correct."""
    graph = queens_graph(5, 5)  # chi = 5
    search = IncrementalKSearch(graph, 8)
    status, coloring, _ = search.solve_k(7, permanent=True)
    assert status == SAT
    clauses_before = len(search.solver.clauses) + len(search.solver.learned)
    watchers_before = search.solver.watcher_count()
    gc_before = dict(search.gc_stats)
    status, coloring, _ = search.solve_k(5, permanent=True)
    assert status == SAT
    assert search.gc_stats["clauses"] > gc_before["clauses"]
    assert search.gc_stats["watchers"] > gc_before["watchers"]
    assert len(search.solver.clauses) + len(search.solver.learned) < clauses_before
    assert search.solver.watcher_count() < watchers_before
    # Correctness on the shrunk database: K=4 is UNSAT for queens 5x5.
    status, _, _ = search.solve_k(4, permanent=True)
    assert status == UNSAT


# ------------------------------------------------- assumption-aware preprocess
def test_bve_respects_frozen_variables():
    # Every variable occurs in both phases (no pure literals), and var 1
    # is NiVER-eliminable (one positive, one negative occurrence);
    # freezing it must block exactly that elimination.
    def formula():
        f = Formula(num_vars=4)
        f.add_clause([1, 2])
        f.add_clause([-1, 3])
        f.add_clause([-2, -3])
        f.add_clause([2, -4])
        f.add_clause([-3, 4])
        return f

    free = preprocess(formula())
    assert 1 in {var for var, _ in free.eliminated}
    frozen = preprocess(formula(), frozen=[1])
    assert 1 not in {var for var, _ in frozen.eliminated}
    assert frozen.variables_eliminated >= 1  # others still eliminate
    # Both reductions stay equisatisfiable with the input.
    assert brute_force_solve(formula()).is_sat
    for pre in (free, frozen):
        assert not pre.is_unsat
        if pre.formula.clauses:
            assert solve_formula(pre.formula).is_sat


def test_pure_literal_elimination_respects_frozen_variables():
    # Var 2 is pure (positive only); frozen, it must survive with its
    # clauses so an assumption of -2 can still constrain the formula.
    from repro.sat.preprocessing import _eliminate_pure

    clauses = [(2, 1), (2, -1)]
    forced = {}
    kept, pure = _eliminate_pure(list(clauses), forced)
    assert forced.get(2) is True and pure == 1 and kept == []
    forced = {}
    kept, pure = _eliminate_pure(list(clauses), forced, frozenset([2]))
    assert 2 not in forced and pure == 0
    assert all(2 in clause for clause in kept)


def test_preprocess_reemits_frozen_units():
    """A top-level unit derived on a frozen variable must stay in the
    formula as a unit clause, so a contradicting assumption still fails
    in the solver instead of silently succeeding."""
    f = Formula(num_vars=3)
    f.add_clause([1])
    f.add_clause([-1, 2])  # forces the frozen var 2
    f.add_clause([2, 3])
    pre = preprocess(f, frozen=[2])
    assert pre.forced[2] is True
    assert (2,) in {c.literals for c in pre.formula.clauses}
    solver = CDCLSolver(num_vars=pre.formula.num_vars)
    assert solver.add_formula(pre.formula)
    refuted = solver.solve(assumptions=[-2])
    assert refuted.is_unsat
    assert refuted.failed_assumptions == [-2]


def test_incremental_eliminate_never_touches_activators():
    graph = mycielski_graph(3)
    search = IncrementalKSearch(graph, 5, sbp_kind="sc")
    assert search._pre is not None
    eliminated = {var for var, _ in search._pre.eliminated}
    frozen = set(search.activators.values())
    assert not eliminated & frozen
    # Activators survive in the clause database, so assumption queries
    # still answer with cores: chi(myciel3) = 4.
    assert search.solve_k(4)[0] == SAT
    status, _, failed = search.solve_k(3)
    assert status == UNSAT
    status, coloring, _ = search.solve_k(5)
    assert status == SAT and graph.is_proper_coloring(coloring)


def test_incremental_eliminate_agrees_with_plain_simplify():
    # The preprocessed search (frozen activators, pure-literal and
    # variable elimination on the rest) answers like the encoding
    # loaded as it is.
    for graph in (mycielski_graph(3), queens_graph(4, 4)):
        plain = IncrementalKSearch(graph, 6, preprocess=False)
        bve = IncrementalKSearch(graph, 6, preprocess=True)
        for k in (6, 5, 4, 3, 2):
            s_plain, c_plain, _ = plain.solve_k(k)
            s_bve, c_bve, _ = bve.solve_k(k)
            assert s_plain == s_bve, (graph.name, k)
            if s_bve == SAT:
                assert graph.is_proper_coloring(c_bve), (graph.name, k)


def test_large_implication_chain_fast():
    n = 5000
    solver = CDCLSolver(num_vars=n)
    for i in range(1, n):
        solver.add_clause([-i, i + 1])
    solver.add_clause([1])
    result = solver.solve()
    assert result.is_sat
    assert all(result.model[v] for v in (1, n // 2, n))
