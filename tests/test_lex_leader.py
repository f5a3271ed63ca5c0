"""Lex-leader SBP tests: soundness (models preserved per orbit) and size."""

from fuzz_budget import fuzz_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formula import Formula
from repro.core.literals import lit_index
from repro.sat.brute import brute_force_count, brute_force_solve
from repro.sbp.lex_leader import (
    add_lex_leader_sbp,
    add_symmetry_breaking_predicates,
    generator_support_vars,
)
from repro.symmetry.detect import detect_symmetries
from repro.symmetry.permutation import Permutation


def var_swap(n, a, b):
    """Literal-index permutation swapping variables a and b."""
    mapping = {
        lit_index(a): lit_index(b), lit_index(b): lit_index(a),
        lit_index(-a): lit_index(-b), lit_index(-b): lit_index(-a),
    }
    return Permutation.from_mapping(2 * n, mapping)


def test_support_vars():
    p = var_swap(3, 1, 3)
    assert generator_support_vars(p) == [1, 3]


def test_swap_sbp_blocks_half_the_orbit():
    # (x1 | x2) with swap symmetry: SBP keeps 10 and kills 01... or the
    # converse; either way exactly the symmetric models drop.
    f = Formula(num_vars=2)
    f.add_clause([1, 2])
    before = brute_force_count(f)
    add_lex_leader_sbp(f, var_swap(2, 1, 2))
    # Aux chain variables add degrees of freedom; check satisfiability
    # of each original assignment instead of raw counts.
    assert before == 3
    kept = set()
    for x1 in (False, True):
        for x2 in (False, True):
            probe = f.copy()
            probe.add_clause([1 if x1 else -1])
            probe.add_clause([2 if x2 else -2])
            if brute_force_solve(probe).is_sat:
                kept.add((x1, x2))
    assert (True, True) in kept
    assert len(kept) == 2  # one of (01),(10) eliminated


def test_phase_shift_generator():
    # Flip symmetry on x1: SBP pins x1 to one phase.
    f = Formula(num_vars=2)
    f.add_clause([1, 2])
    f.add_clause([-1, 2])
    flip = Permutation([1, 0, 2, 3])
    added = add_lex_leader_sbp(f, flip)
    assert added == 1  # single unit clause (~x1)
    result = brute_force_solve(f)
    assert result.is_sat


def test_sbp_preserves_satisfiability_with_all_generators():
    f = Formula(num_vars=4)
    f.add_exactly_one([1, 2, 3, 4])
    report = detect_symmetries(f)
    added = add_symmetry_breaking_predicates(f, report.generators)
    assert added > 0
    result = brute_force_solve(f)
    assert result.is_sat


def test_support_cap_limits_size():
    n = 12
    mapping = {}
    for v in range(1, n, 2):
        mapping.update({
            lit_index(v): lit_index(v + 1), lit_index(v + 1): lit_index(v),
            lit_index(-v): lit_index(-(v + 1)), lit_index(-(v + 1)): lit_index(-v),
        })
    big = Permutation.from_mapping(2 * n, mapping)
    f1 = Formula(num_vars=n)
    f1.add_clause([1, 2])
    full = add_lex_leader_sbp(f1.copy(), big, support_cap=None)
    capped = add_lex_leader_sbp(f1.copy(), big, support_cap=2)
    assert capped < full


def test_degree_check():
    f = Formula(num_vars=1)
    f.add_clause([1])
    big = Permutation.identity(10)
    try:
        add_lex_leader_sbp(f, big)
        assert False, "expected ValueError"
    except ValueError:
        pass


@settings(max_examples=fuzz_examples(30), deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_sbp_soundness_on_random_symmetric_formulas(n, data):
    """For formulas symmetric under a var swap, adding the swap's SBP
    never changes satisfiability."""
    a, b = 1, 2
    f = Formula(num_vars=n)
    # Build clauses invariant under swapping variables a and b.
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        lits = data.draw(
            st.lists(
                st.integers(min_value=3, max_value=max(3, n)).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=0, max_size=2,
            )
        ) if n >= 3 else []
        sign = data.draw(st.sampled_from([1, -1]))
        f.add_clause(lits + [sign * a, sign * b])
        f.add_clause(lits + [sign * b, sign * a])
    status_before = brute_force_solve(f).status
    add_lex_leader_sbp(f, var_swap(n, a, b))
    assert brute_force_solve(f).status == status_before
