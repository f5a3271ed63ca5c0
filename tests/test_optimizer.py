"""Optimizer tests: linear vs binary search, bounds, fuzz vs brute, and
the search's pinned trajectories on the paper's K=20 formulas.

``make fuzz-smoke`` runs this module; nightly CI explores fresh seeds
for the brute-force property.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.encoding import encode_coloring
from repro.core.formula import Formula
from repro.experiments.instances import get_instance
from repro.graphs.cliques import clique_lower_bound
from repro.graphs.coloring_heuristics import dsatur
from repro.pb.optimizer import minimize
from repro.pb.presets import PRESETS, get_preset, solve_optimize
from repro.sat.brute import brute_force_optimize
from repro.sat.preprocessing import simplify_formula
from repro.sbp.instance_independent import apply_sbp


def _small_problem():
    # Cover >= constraints force at least 2 of 4 variables.
    f = Formula(num_vars=4)
    f.add_clause([1, 2])
    f.add_clause([3, 4])
    f.set_objective([(1, v) for v in range(1, 5)])
    return f


def test_linear_finds_optimum():
    result = minimize(_small_problem(), strategy="linear")
    assert result.is_optimal and result.best_value == 2


def test_binary_finds_optimum():
    result = minimize(_small_problem(), strategy="binary")
    assert result.is_optimal and result.best_value == 2


def test_upper_bound_hint_respected():
    result = minimize(_small_problem(), strategy="linear", upper_bound_hint=3)
    assert result.is_optimal and result.best_value == 2


def test_binary_retries_too_tight_hint():
    result = minimize(_small_problem(), strategy="binary", upper_bound_hint=1)
    assert result.is_optimal and result.best_value == 2


@pytest.mark.parametrize("incremental", [True, False])
def test_linear_retries_too_tight_hint(incremental):
    # The persistent linear probe's bound is permanent: a refuted hint
    # only raises the lower bound, and the retry runs on a fresh solver.
    result = minimize(_small_problem(), strategy="linear",
                      upper_bound_hint=1, incremental=incremental)
    assert result.is_optimal and result.best_value == 2


def test_lower_bound_short_circuits():
    result = minimize(_small_problem(), strategy="linear", lower_bound=2)
    assert result.is_optimal and result.best_value == 2


def test_unsat_problem():
    f = Formula(num_vars=1)
    f.add_clause([1])
    f.add_clause([-1])
    f.set_objective([(1, 1)])
    assert minimize(f, strategy="linear").is_unsat
    assert minimize(f, strategy="binary").is_unsat


def test_missing_objective_rejected():
    f = Formula(num_vars=1)
    f.add_clause([1])
    with pytest.raises(ValueError):
        minimize(f)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        minimize(_small_problem(), strategy="random")


def test_presets_exist_and_solve():
    assert set(PRESETS) == {"pbs2", "galena", "pueblo"}
    for name in PRESETS:
        result = solve_optimize(_small_problem(), preset=name)
        assert result.is_optimal and result.best_value == 2


def test_unknown_preset():
    # The API boundary reports bad names as ValueError, naming the
    # registered choices (not a deep KeyError from the preset table).
    with pytest.raises(ValueError, match="pbs2"):
        get_preset("cplex")


@st.composite
def objective_problem(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    f = Formula(num_vars=n)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        width = draw(st.integers(min_value=1, max_value=n))
        vs = draw(
            st.lists(st.integers(min_value=1, max_value=n),
                     min_size=width, max_size=width, unique=True)
        )
        terms = [(draw(st.integers(min_value=-3, max_value=3)), v) for v in vs]
        f.add_pb(terms, draw(st.sampled_from([">=", "<="])),
                 draw(st.integers(min_value=-2, max_value=4)))
    f.set_objective(
        [(draw(st.integers(min_value=1, max_value=3)),
          v * draw(st.sampled_from([1, -1])))
         for v in range(1, n + 1)]
    )
    return f


@settings(max_examples=60, deadline=None)
@given(objective_problem(), st.sampled_from(["linear", "binary"]),
       st.booleans(), st.data())
def test_optimizer_matches_brute_force(formula, strategy, incremental, data):
    """Any hint (none, or any integer, too-tight ones included) and any
    lower bound no higher than the optimum keep the answer exact."""
    expected = brute_force_optimize(formula)
    hint = data.draw(st.none() | st.integers(min_value=-3, max_value=15))
    optimum = expected.best_value if expected.is_optimal else 0
    lower = data.draw(st.integers(min_value=min(0, optimum), max_value=optimum))
    actual = minimize(formula, strategy=strategy, upper_bound_hint=hint,
                      lower_bound=lower, incremental=incremental)
    assert actual.status == expected.status
    if actual.is_optimal:
        assert actual.best_value == expected.best_value
        assert formula.evaluate(actual.best_model)


# ------------------------------------------------------- pinned trajectories
# The pb-k20 workload's formulas: K=20 colorings under an SBP kind, after
# simplify_formula, with the DSATUR count as the hint and the clique bound
# as the lower bound.
PINNED = [("myciel4", "nu+sc"), ("myciel4", "li"), ("queen5_5", "nu+sc"),
          ("queen5_5", "li"), ("miles250", "nu+sc"), ("huck", "nu+sc"),
          ("jean", "nu+sc")]
PINNED_DIGEST = "c5f08bedb3c5cf5925f394ca56fb4d1f12a6d844c3f91baf4243254c2925d088"


def test_minimize_trajectories_are_pinned():
    """Status, value, model and every search counter of each preset's
    search (and of the fresh-solver reference on two graphs) stay fixed:
    a change to the search loop that moves a single decision fails."""
    digest = hashlib.sha256()
    for name, sbp_kind in PINNED:
        graph = get_instance(name).graph()
        formula, _ = simplify_formula(
            apply_sbp(encode_coloring(graph, 20), sbp_kind).formula)
        runs = [("pbs2", True), ("pueblo", True)]
        if name in ("myciel4", "queen5_5"):
            runs.append(("pueblo", False))
        for preset_name, incremental in runs:
            preset = get_preset(preset_name)
            # Only the fresh reference names ``incremental``, so the test
            # also runs against the three loops this one replaced.
            kwargs = {} if incremental else {"incremental": False}
            result = minimize(
                formula, strategy=preset.optimization_strategy,
                solver_factory=preset.solver_factory(),
                upper_bound_hint=dsatur(graph)[1],
                lower_bound=clique_lower_bound(graph), **kwargs,
            )
            stats = result.stats
            digest.update(repr((
                result.status, result.best_value,
                sorted(result.best_model.items()) if result.best_model else None,
                stats.decisions, stats.conflicts, stats.propagations,
                stats.restarts, stats.learned, stats.deleted,
            )).encode())
    assert digest.hexdigest() == PINNED_DIGEST
