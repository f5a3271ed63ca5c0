"""CNF preprocessing tests."""

import hashlib
import itertools
import random
from dataclasses import asdict

import pytest
from fuzz_budget import fuzz_examples
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.coloring.encoding import encode_coloring
from repro.coloring.sat_pipeline import (
    CNF_SBP_KINDS,
    encode_k_coloring_cnf,
    encode_k_coloring_incremental,
)
from repro.core.formula import Formula
from repro.experiments.instances import get_instance
from repro.graphs.graph import Graph
from repro.resilience import Deadline
from repro.sat.brute import brute_force_solve
from repro.sat.preprocessing import (
    _canonical_intake,
    _propagate_units,
    preprocess,
    simplify_formula,
    subsume_clauses,
)
from repro.sbp.instance_independent import SBP_KINDS, apply_sbp
from repro.sbp.lex_leader import add_symmetry_breaking_predicates
from repro.symmetry.detect import detect_symmetries


def test_unit_propagation_chain():
    f = Formula(num_vars=3)
    f.add_clause([1])
    f.add_clause([-1, 2])
    f.add_clause([-2, 3])
    result = preprocess(f)
    assert not result.is_unsat
    assert result.forced == {1: True, 2: True, 3: True}
    assert result.units_propagated == 3
    assert not result.formula.clauses


def test_unit_conflict_unsat():
    f = Formula(num_vars=1)
    f.add_clause([1])
    f.add_clause([-1])
    assert preprocess(f).is_unsat


def test_pure_literal_elimination():
    f = Formula(num_vars=3)
    f.add_clause([1, 2])
    f.add_clause([1, 3])
    f.add_clause([-2, -3])
    result = preprocess(f)
    # x1 is pure positive: gets fixed, its clauses vanish.
    assert result.forced.get(1) is True
    assert result.pure_eliminated >= 1


def test_subsumption():
    f = Formula(num_vars=3)
    f.add_clause([1, 2])
    f.add_clause([1, 2, 3])
    f.add_clause([-1, -2])
    f.add_clause([-1, -2, -3])
    result = preprocess(f)
    assert result.subsumed == 2


def test_self_subsuming_resolution():
    # (a | b) and (a | ~b | c) strengthen the second to (a | c).
    f = Formula(num_vars=3)
    f.add_clause([1, 2])
    f.add_clause([1, -2, 3])
    f.add_clause([-1, 2])  # keep the formula from collapsing to units
    result = preprocess(f)
    assert result.strengthened >= 1


def test_tautology_is_not_a_subsumer():
    # Regression: the old pairwise loop "strengthened" (2|~4) to (~4)
    # by resolving against the tautology (2|~2) — resolving on a
    # tautology yields the other clause back, never a strengthening.
    # This exact formula is SAT but used to preprocess to UNSAT.
    f = Formula(num_vars=4)
    f.add_clause([-1])
    f.add_clause([2, -2])
    f.add_clause([2, -4])
    f.add_clause([2, 4])
    assert brute_force_solve(f).status == "SAT"
    result = preprocess(f)
    assert not result.is_unsat
    assert result.tautologies_removed == 1
    model = result.extend_model({})
    assert f.evaluate(model)


def test_tautologies_dropped_at_subsumption_level():
    # Direct engine call: a tautology neither subsumes nor strengthens —
    # it is simply dropped ((2|~2) must not turn (2|~4) into (~4)).
    kept, subsumed, strengthened = subsume_clauses([(2, -2), (2, -4)])
    assert kept == [(2, -4)]
    assert subsumed == 0 and strengthened == 0


def test_strengthened_clauses_are_requeued():
    # Regression: the old loop sorted clauses by length once; a clause
    # strengthened mid-pass could shrink below the current pivot length
    # and its new subsumption/strengthening opportunities were skipped.
    # (1|2) strengthens (-1|2) to (2); the re-queued unit (2) must then
    # subsume (2|3) and (2|4|5) in the same call.
    kept, subsumed, strengthened = subsume_clauses(
        [(1, 2), (-1, 2), (2, 3), (2, 4, 5)]
    )
    assert strengthened >= 1
    # The unit (2) then subsumes everything else, including the clause
    # it was strengthened from.
    assert kept == [(2,)]
    assert subsumed == 3


def test_preprocess_reaches_unit_fixpoint_after_strengthening():
    f = Formula(num_vars=5)
    f.add_clause([1, 2])
    f.add_clause([-1, 2])
    f.add_clause([2, 3])
    f.add_clause([2, 4, 5])
    result = preprocess(f)
    assert not result.is_unsat
    assert result.forced[2] is True
    assert result.formula.clauses == []


def test_variable_elimination_round_trip():
    # x2 is resolved away; the model must still assign it correctly.
    f = Formula(num_vars=3)
    f.add_clause([1, 2])
    f.add_clause([-2, 3])
    result = preprocess(f)
    assert not result.is_unsat
    model = result.extend_model({})
    assert f.evaluate(model)


def test_rejects_pb():
    f = Formula(num_vars=2)
    f.add_pb([(1, 1), (1, 2)], ">=", 1)
    with pytest.raises(ValueError):
        preprocess(f)


def _random_cnf(data, max_vars=6, max_clauses=12, max_width=3):
    n = data.draw(st.integers(min_value=1, max_value=max_vars))
    f = Formula(num_vars=n)
    for _ in range(data.draw(st.integers(min_value=1, max_value=max_clauses))):
        width = data.draw(st.integers(min_value=1, max_value=max_width))
        f.add_clause([
            data.draw(st.integers(min_value=1, max_value=n))
            * data.draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ])
    return f


@settings(max_examples=fuzz_examples(80), deadline=None)
@given(st.data())
def test_preprocessing_preserves_satisfiability(data):
    f = _random_cnf(data)
    before = brute_force_solve(f).status
    result = preprocess(f)
    if result.is_unsat:
        assert before == "UNSAT"
        return
    # Forced assignment must extend to a model iff the original had one.
    reduced = result.formula.copy()
    for var, value in result.forced.items():
        reduced.add_clause([var if value else -var])
    after = brute_force_solve(reduced).status
    assert after == before


@settings(max_examples=fuzz_examples(120), deadline=None)
@given(st.data())
def test_preprocessing_model_round_trip(data):
    # Stronger than equisatisfiability: a model of the reduced formula,
    # run through extend_model, must satisfy the *original* formula —
    # including variables removed by pure-literal and variable
    # elimination.
    f = _random_cnf(data)
    before = brute_force_solve(f).status
    result = preprocess(f)
    if result.is_unsat:
        assert before == "UNSAT"
        return
    assert before == "SAT"
    sub = brute_force_solve(result.formula)
    assert sub.status == "SAT"
    model = result.extend_model(sub.model)
    assert set(model) == set(range(1, f.num_vars + 1))
    assert f.evaluate(model)


@settings(max_examples=fuzz_examples(100), deadline=None)
@given(st.data())
def test_simplify_formula_is_model_preserving(data):
    # simplify_formula must keep mixed CNF+PB formulas logically
    # equivalent: same status, and every model of the simplified
    # formula satisfies the original directly (no reconstruction).
    f = _random_cnf(data, max_vars=5, max_clauses=10)
    if data.draw(st.booleans()):
        lits = [
            v * data.draw(st.sampled_from([1, -1]))
            for v in range(1, f.num_vars + 1)
        ]
        f.add_pb([(1, l) for l in lits], ">=",
                 data.draw(st.integers(min_value=0, max_value=f.num_vars)))
    before = brute_force_solve(f)
    out, stats = simplify_formula(f)
    if out is None:
        assert before.status == "UNSAT"
        return
    assert out.num_vars == f.num_vars
    # Forced literals are substituted into PB constraints, so a
    # constraint may shrink or disappear (when trivially satisfied),
    # but never multiply.
    assert len(out.pb_constraints) <= len(f.pb_constraints)
    after = brute_force_solve(out)
    assert after.status == before.status
    if after.status == "SAT":
        assert f.evaluate(after.model)


def test_simplify_formula_keeps_objective():
    f = Formula(num_vars=3)
    f.add_clause([1])
    f.add_clause([-1, 2])
    f.add_clause([2, 3])
    f.set_objective([(1, 2), (1, 3)])
    out, stats = simplify_formula(f)
    assert out is not None
    assert out.objective == f.objective
    assert stats.units_propagated >= 2
    # Units derived by propagation stay visible as unit clauses.
    unit_lits = {c[0] for c in out.clauses if len(c) == 1}
    assert {1, 2} <= unit_lits


def test_simplify_substitutes_forced_into_pb():
    # A forced true literal moves its coefficient onto the bound; a
    # forced false literal disappears from the terms.
    f = Formula(num_vars=4)
    f.add_clause([1])       # force 1 = True
    f.add_clause([-2])      # force 2 = False
    f.add_pb([(2, 1), (3, 2), (1, 3), (1, 4)], ">=", 3)
    out, stats = simplify_formula(f)
    assert out is not None
    assert stats.pb_tightened == 1
    (pb,) = out.pb_constraints
    assert pb.terms == ((1, 3), (1, 4))
    assert pb.relation == ">=" and pb.bound == 1  # 3 - coef(1) = 1
    # Units stay visible, so the conjunction is still equivalent.
    unit_lits = {c[0] for c in out.clauses if len(c) == 1}
    assert {1, -2} <= unit_lits


def test_simplify_drops_satisfied_pb():
    f = Formula(num_vars=3)
    f.add_clause([1])
    f.add_clause([2])
    f.add_pb([(1, 1), (1, 2)], ">=", 2)  # satisfied by the forced units
    out, stats = simplify_formula(f)
    assert out is not None
    assert out.pb_constraints == []
    assert stats.pb_satisfied == 1


def test_simplify_detects_pb_infeasible_under_units():
    f = Formula(num_vars=2)
    f.add_clause([-1])
    f.add_clause([-2])
    f.add_pb([(1, 1), (1, 2)], ">=", 1)  # both terms forced false
    out, stats = simplify_formula(f)
    assert out is None


def test_simplify_pb_equality_substitution():
    f = Formula(num_vars=3)
    f.add_clause([1])
    f.add_pb([(1, 1), (1, 2), (1, 3)], "=", 1)  # exactly-one, one forced
    out, stats = simplify_formula(f)
    assert out is not None
    (pb,) = out.pb_constraints
    assert pb.relation == "=" and pb.bound == 0
    assert pb.terms == ((1, 2), (1, 3))


def _same_models(a, b, num_vars):
    for values in itertools.product((False, True), repeat=num_vars):
        model = dict(zip(range(1, num_vars + 1), values))
        if a.evaluate(model) != b.evaluate(model):
            return False
    return True


def test_simplify_formula_stops_at_an_expired_deadline():
    f = Formula(num_vars=4)
    f.add_clause([1, 2])
    f.add_clause([1, 2, 3])  # subsumed by (1 | 2)
    f.add_clause([3, 4])
    out, stats = simplify_formula(f)
    assert stats.subsumed == 1 and stats.strengthened == 0
    assert len(out.clauses) == 2
    cut, cut_stats = simplify_formula(f, deadline=Deadline.after(0))
    assert cut_stats.subsumed == cut_stats.strengthened == 0
    # A cut pass keeps every clause it did not visit.
    assert sorted(cut.clauses) == sorted(f.clauses)
    assert _same_models(out, f, 4) and _same_models(cut, f, 4)


# Digests of simplify's output on the formulas of the pb-k20 and
# pb-shatter benchmark workloads: a changed clause, clause order, PB
# constraint or counter shows here, and perfbench's counter files
# depend on all of them.
SIMPLIFY_PINS = [
    ("myciel4", 20, "nu+sc", 1798, "e46cc4a86a989a96"),
    ("myciel4", 20, "li", 5076, "b120ba22bbec13bf"),
    ("queen5_5", 20, "nu+sc", 3438, "54e7e74dbf705e46"),
    ("queen5_5", 20, "li", 7174, "7350aa31444afa81"),
    ("miles250", 20, "nu+sc", 9956, "e1b570644b9dab21"),
    ("huck", 20, "nu+sc", 6896, "e03cb2516822722e"),
    ("jean", 20, "nu+sc", 6169, "ccba90d460ae0f2e"),
    ("myciel3", 6, "none", 192, "7173174057e40bb1"),
    ("queen5_5", 6, "none", 1116, "db62c5f6d60570e3"),
    ("queen7_7", 6, "none", 3156, "390b709006155db9"),
    ("queen8_12", 6, "none", 8790, "b4cdc9ea76926305"),
]


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,k,kind,clauses_after,digest", SIMPLIFY_PINS,
                         ids=[f"{n}-k{k}-{kind}" for n, k, kind, _, _ in SIMPLIFY_PINS])
def test_simplify_formula_output_is_pinned(name, k, kind, clauses_after, digest):
    encoding = encode_coloring(get_instance(name).graph(), k)
    if kind != "none":
        encoding = apply_sbp(encoding, kind)
    out, stats = simplify_formula(encoding.formula)
    assert stats.clauses_after == clauses_after
    assert _digest((
        out.clauses,
        [(p.terms, p.relation, p.bound) for p in out.pb_constraints],
        asdict(stats),
    )) == digest


def test_subsume_clauses_output_is_pinned():
    # The 10k-clause input of benchmarks/bench_preprocessing.py.
    rng = random.Random(42)
    clauses = []
    for _ in range(10000):
        lits = rng.sample(range(1, 2001), rng.randint(2, 5))
        clauses.append(tuple(l * rng.choice((1, -1)) for l in lits))
    kept, subsumed, strengthened = subsume_clauses(clauses)
    assert (subsumed, strengthened) == (13, 24)
    assert _digest(kept) == "63fccf74d8bf32f5"


@settings(max_examples=fuzz_examples(100), deadline=None)
@given(st.data())
def test_simplify_formula_output_is_a_fixpoint(data):
    # After simplify, no output clause subsumes another, and none
    # strengthens another (C = A|x, D = B|~x with A <= B).
    f = _random_cnf(data, max_vars=6, max_clauses=14)
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        lits = [
            v * data.draw(st.sampled_from([1, -1]))
            for v in range(1, f.num_vars + 1)
        ]
        f.add_pb([(data.draw(st.integers(min_value=1, max_value=3)), l) for l in lits],
                 data.draw(st.sampled_from([">=", "<=", "="])),
                 data.draw(st.integers(min_value=0, max_value=f.num_vars)))
    out, _ = simplify_formula(f)
    if out is None:
        return
    sets = [frozenset(c) for c in out.clauses]
    for i, c in enumerate(sets):
        for j, d in enumerate(sets):
            if i == j:
                continue
            assert not c <= d, (out.clauses[i], out.clauses[j])
            for lit in c:
                assert not (-lit in d and c - {lit} <= d), (out.clauses[i], out.clauses[j])


# Reference implementations: subsumption that tests each candidate of
# an occurrence list in Python, and propagation that rewrites the whole
# clause list per wave.  The indexed passes must reproduce them
# exactly: same clauses in the same order, same counts, same forced
# assignment, SAT or UNSAT.
def _reference_subsume(clauses):
    work = sorted({c for c in clauses if not any(-l in c for l in c)},
                  key=lambda c: (len(c), c))
    sets = [frozenset(c) for c in work]
    alive = [True] * len(work)
    occ = {}
    for idx, clause in enumerate(work):
        for lit in clause:
            occ.setdefault(lit, set()).add(idx)
    queue = list(range(len(work)))
    queued = [True] * len(work)
    subsumed = strengthened = 0
    while queue:
        i = queue.pop(0)
        queued[i] = False
        if not alive[i] or not work[i]:
            continue
        this = sets[i]
        pivot = min(work[i], key=lambda l: len(occ.get(l, ())))
        for j in list(occ.get(pivot, ())):
            if j != i and alive[j] and this <= sets[j]:
                alive[j] = False
                for lit in work[j]:
                    occ[lit].discard(j)
                subsumed += 1
        for lit in work[i]:
            rest = this - {lit}
            for j in list(occ.get(-lit, ())):
                if rest <= sets[j]:
                    occ[-lit].discard(j)
                    work[j] = tuple(l for l in work[j] if l != -lit)
                    sets[j] = frozenset(work[j])
                    strengthened += 1
                    if not queued[j]:
                        queue.append(j)
                        queued[j] = True
    return [c for c, keep in zip(work, alive) if keep], subsumed, strengthened


def _reference_propagate(clauses, forced):
    count = 0
    while True:
        units = [c[0] for c in clauses if len(c) == 1]
        if not units:
            return clauses, count
        for lit in units:
            if forced.get(abs(lit), lit > 0) != (lit > 0):
                return None, count
            if abs(lit) not in forced:
                forced[abs(lit)] = lit > 0
                count += 1
        out = []
        for clause in clauses:
            if any(forced.get(abs(l)) == (l > 0) for l in clause):
                continue
            rest = tuple(l for l in clause if abs(l) not in forced)
            if not rest:
                return None, count
            out.append(rest)
        clauses = out


def _clause_lists(max_vars, min_width):
    lit = st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda v: st.sampled_from([v, -v]))
    return st.lists(st.lists(lit, min_size=min_width, max_size=4).map(tuple), max_size=18)


@settings(max_examples=fuzz_examples(200), deadline=None)
@given(_clause_lists(max_vars=7, min_width=0))
# (1|2|-3) is strengthened after its visit and must be visited again.
@example([(2, 3), (-1, -3), (1, -2), (1, 2, -3)])
# (2|3|-4) and (-2|4) are strengthened by one visit; the re-queue order
# follows the walk of the occurrence set.
@example([(1, 2), (2, 3, -4), (-1, 2), (-2, 3), (-2, 4)])
# A repeated literal makes a length-2 tuple a unit.
@example([(1, 1), (1, 2)])
@example([(1, 1), (-1, 2)])
# Equal as sets: one subsumes the other.
@example([(2, 1), (1, 2)])
# A binary strengthens a binary, subsumes a ternary, strengthens one.
@example([(1, 2), (-1, 2)])
@example([(1, 2), (1, 2, 3)])
@example([(1, 2), (-1, 2, 3)])
# A ternary strengthens a ternary.
@example([(1, 2, 3), (1, 2, -3)])
def test_subsume_clauses_matches_the_reference(clauses):
    # Unsorted literals, repeated literals, tautologies, duplicate and
    # empty clauses included.
    assert subsume_clauses(clauses) == _reference_subsume(clauses)


@settings(max_examples=fuzz_examples(60), deadline=None)
@given(st.data())
def test_subsume_clauses_matches_the_reference_on_colorings(data):
    # The clauses simplify_formula hands the pass on a coloring encoding,
    # where most clauses can act on no other, plus a few random clauses
    # over its variables that may.
    n = data.draw(st.integers(min_value=1, max_value=7))
    graph = Graph(n)
    for u, v in itertools.combinations(range(n), 2):
        if data.draw(st.booleans()):
            graph.add_edge(u, v)
    encoding = encode_coloring(graph, data.draw(st.integers(min_value=2, max_value=4)))
    formula = apply_sbp(encoding, data.draw(st.sampled_from(SBP_KINDS))).formula
    clauses, _, _ = _canonical_intake(formula.clauses)
    clauses, _ = _propagate_units(clauses, {})
    if clauses is None:
        return
    lit = st.integers(min_value=1, max_value=formula.num_vars).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clauses = clauses + data.draw(st.lists(
        st.lists(lit, min_size=1, max_size=4).map(tuple), max_size=2))
    assert subsume_clauses(clauses) == _reference_subsume(clauses)


def _is_canonical(clause):
    """A non-empty tuple of nonzero ints sorted by variable, with no
    repeated literal (``x`` before ``-x`` in a tautology)."""
    return (type(clause) is tuple and len(clause) > 0
            and all(type(lit) is int and lit != 0 for lit in clause)
            and all(abs(a) < abs(b) or a == -b > 0 for a, b in zip(clause, clause[1:])))


@settings(max_examples=fuzz_examples(60), deadline=None)
@given(st.data())
def test_every_producer_hands_on_canonical_clauses(data):
    # Nothing checks a clause's form on its way into a solver: the
    # encoders, the SBPs and both simplifiers must each keep it canonical.
    n = data.draw(st.integers(min_value=1, max_value=7))
    graph = Graph(n)
    for u, v in itertools.combinations(range(n), 2):
        if data.draw(st.booleans()):
            graph.add_edge(u, v)
    k = data.draw(st.integers(min_value=2, max_value=4))
    formulas = []
    for kind in SBP_KINDS:
        encoded = apply_sbp(encode_coloring(graph, k), kind).formula
        formulas += [encoded, simplify_formula(encoded)[0]]
    for kind in CNF_SBP_KINDS:
        cnf, _ = encode_k_coloring_cnf(graph, k, kind)
        incremental, _, activators = encode_k_coloring_incremental(graph, k, kind)
        # Frozen activators, as IncrementalKSearch preprocesses them.
        formulas += [cnf, preprocess(cnf).formula, incremental,
                     preprocess(incremental, frozen=activators.values()).formula]
    lex = encode_coloring(graph, k).formula
    add_symmetry_breaking_predicates(lex, detect_symmetries(lex, compute_order=False).generators)
    formulas.append(lex)
    clauses = [c for f in formulas if f is not None for c in f.clauses]
    assert [c for c in clauses if not _is_canonical(c)] == []


@settings(max_examples=fuzz_examples(200), deadline=None)
@given(_clause_lists(max_vars=6, min_width=1))
def test_propagate_units_matches_the_reference(clauses):
    # Callers hand over canonical, duplicate-literal-free clauses.
    clauses = [tuple(sorted(set(c), key=abs)) for c in clauses]
    clauses = [c for c in clauses if len({abs(l) for l in c}) == len(c)]
    forced, expected_forced = {}, {}
    assert _propagate_units(clauses, forced) == _reference_propagate(clauses, expected_forced)
    assert list(forced.items()) == list(expected_forced.items())
