"""Tests of the incremental K-search subsystem and the assumption API.

Three layers, mirroring what the incremental descent relies on:

* solver-level: assumption-level backtracking, assumption-aware
  restarts, final-conflict (failed-assumption) extraction and its
  guarantees (the core really is jointly unsatisfiable);
* search-level: :class:`IncrementalKSearch` semantics, including the
  monotone ``permanent`` mode and the unsat core over colors;
* pipeline-level: property tests over the graph generator families
  asserting the incremental and from-scratch descents agree on the
  chromatic number and produce valid colorings, for both strategies.
  Both descents run on the one K-descent driver, so the random-graph
  property also checks them against the DSATUR branch and bound, which
  shares no descent code, with and without a color cap.

Profiles: deterministic seeds in PRs, fresh seeds nightly — see
``tests/conftest.py``.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coloring.exact_dsatur import exact_chromatic_number
from repro.coloring.sat_pipeline import (
    IncrementalKSearch,
    chromatic_number_sat,
    encode_k_coloring_incremental,
)
from repro.coloring.verify import is_proper
from repro.graphs.generators import (
    book_graph,
    crown_graph,
    gnm_graph,
    gnp_graph,
    interference_graph,
    kneser_graph,
    mycielski_graph,
    queens_graph,
    wheel_graph,
)
from repro.graphs.graph import Graph
from repro.pb.engine import PBSolver
from repro.sat.cdcl import CDCLSolver
from repro.sat.result import SAT, UNSAT


# --------------------------------------------------------------- solver layer
def test_failed_assumptions_simple_core():
    solver = CDCLSolver()
    solver.add_clause([1, 2])
    result = solver.solve(assumptions=[-1, -2])
    assert result.is_unsat
    assert result.failed_assumptions == [-1, -2]
    # Not UNSAT on its own: solving again without assumptions succeeds.
    assert solver.solve().is_sat


def test_failed_assumptions_subset_only():
    solver = CDCLSolver()
    solver.add_clause([1, 2])
    # Assumption -5 is irrelevant to the conflict; the core must not
    # contain it.
    result = solver.solve(assumptions=[-5, -1, -2])
    assert result.is_unsat
    assert result.failed_assumptions == [-1, -2]


def test_failed_assumptions_through_propagation_chain():
    solver = CDCLSolver()
    solver.add_clause([-1, 2])   # 1 -> 2
    solver.add_clause([-2, 3])   # 2 -> 3
    solver.add_clause([-3, -4])  # 3 -> not 4
    result = solver.solve(assumptions=[1, 4])
    assert result.is_unsat
    assert result.failed_assumptions == [1, 4]


def test_failed_assumptions_empty_core_when_globally_unsat():
    solver = CDCLSolver()
    solver.add_clause([1])
    assert not solver.add_clause([-1])
    result = solver.solve(assumptions=[2])
    assert result.is_unsat
    assert result.failed_assumptions == []


def test_failed_assumptions_contradictory_pair():
    solver = CDCLSolver()
    solver.add_clause([1, 2])
    result = solver.solve(assumptions=[3, -3])
    assert result.is_unsat
    assert result.failed_assumptions == [3, -3]


def test_core_is_jointly_unsat_pigeonhole():
    # On a nontrivial UNSAT-under-assumptions instance, re-solving a
    # fresh solver under only the reported core must still be UNSAT.
    def php(pigeons, holes):
        solver = CDCLSolver()
        x = {}
        var = 0
        for p in range(pigeons):
            for h in range(holes):
                var += 1
                x[p, h] = var
        for p in range(pigeons):
            solver.add_clause([x[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-x[p1, h], -x[p2, h]])
        return solver, x

    solver, x = php(5, 5)
    # Forbid pigeon 0 from every hole via assumptions: UNSAT, and the
    # core is a subset of those bans that already blocks pigeon 0.
    assumptions = [-x[0, h] for h in range(5)]
    result = solver.solve(assumptions=assumptions)
    assert result.is_unsat
    core = result.failed_assumptions
    assert core and set(core) <= set(assumptions)
    fresh, _ = php(5, 5)
    assert fresh.solve(assumptions=core).is_unsat


def test_assumptions_released_between_calls():
    solver = CDCLSolver()
    solver.add_clause([1, 2, 3])
    assert solver.solve(assumptions=[-1, -2, -3]).is_unsat
    result = solver.solve(assumptions=[-1, -2])
    assert result.is_sat and result.model[3] is True
    assert solver.solve().is_sat


def test_assumption_backtracking_keeps_solver_reusable():
    # Learned state from an assumption-UNSAT call must not corrupt
    # later calls (the solver always returns to level 0).
    solver = CDCLSolver()
    for i in range(1, 6):
        solver.add_clause([i, i + 5])
    for _ in range(3):
        assert solver.solve(assumptions=[-1, -6]).is_unsat
        assert solver.decision_level == 0
        assert solver.solve().is_sat
        assert solver.decision_level == 0


def test_assumption_aware_restarts_stay_correct():
    # restart_base=1 restarts after every conflict; with assumptions the
    # restart must keep the assumption prefix and still be correct.
    solver = CDCLSolver(restart_base=1)
    x = {}
    var = 0
    for p in range(6):
        for h in range(5):
            var += 1
            x[p, h] = var
    for p in range(6):
        solver.add_clause([x[p, h] for h in range(5)])
    for h in range(5):
        for p1 in range(6):
            for p2 in range(p1 + 1, 6):
                solver.add_clause([-x[p1, h], -x[p2, h]])
    result = solver.solve(assumptions=[x[0, 0], x[1, 1]])
    assert result.is_unsat  # PHP 6->5 is UNSAT regardless
    # The refutation may or may not run through the assumptions, but
    # the reported core must be a subset of them, and the formula must
    # indeed be UNSAT without any assumptions at all.
    assert set(result.failed_assumptions) <= {x[0, 0], x[1, 1]}
    assert solver.solve().is_unsat


def test_pb_solver_supports_assumption_cores():
    solver = PBSolver()
    solver.add_linear_ge([(1, 1), (1, 2), (1, 3)], 2)
    result = solver.solve(assumptions=[-1, -2])
    assert result.is_unsat
    assert result.failed_assumptions == [-1, -2]
    assert solver.solve(assumptions=[-1]).is_sat


# --------------------------------------------------------------- search layer
def test_incremental_search_descent_and_core():
    g = mycielski_graph(3)  # chi = 4, triangle-free
    search = IncrementalKSearch(g, 5)
    status, coloring, _ = search.solve_k(4)
    assert status == SAT and is_proper(g, coloring)
    assert len(set(coloring.values())) <= 4
    status, coloring, failed = search.solve_k(3)
    assert status == UNSAT and coloring is None
    # The core over colors only mentions disabled colors (> 3).
    assert all(c in (4, 5) for c in failed)


def test_incremental_search_permanent_mode_is_monotone():
    g = mycielski_graph(3)
    search = IncrementalKSearch(g, 5)
    status, _, _ = search.solve_k(4, permanent=True)
    assert status == SAT
    with pytest.raises(ValueError):
        search.solve_k(5)  # k >= max_k rejected
    status, _, _ = search.solve_k(3, permanent=True)
    assert status == UNSAT
    with pytest.raises(ValueError):
        search.solve_k(4, permanent=True)  # non-monotone rejected
    with pytest.raises(ValueError):
        # Plain queries above the permanent ceiling are rejected too:
        # the level-0 units cannot be retracted by assumptions, so
        # answering would report a wrong UNSAT.
        search.solve_k(4)


def test_incremental_encoding_guards_every_color():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])  # triangle
    formula, x, act = encode_k_coloring_incremental(g, 4)
    assert set(act) == {1, 2, 3, 4}
    solver = CDCLSolver(num_vars=formula.num_vars)
    assert solver.add_formula(formula)
    # Disabling one color leaves a 3-coloring; disabling two leaves
    # a 2-coloring attempt on a triangle: UNSAT.
    assert solver.solve(assumptions=[-act[4]]).is_sat
    result = solver.solve(assumptions=[-act[4], -act[3]])
    assert result.is_unsat
    failed = {a for a in (result.failed_assumptions or [])}
    assert failed <= {-act[4], -act[3]}


def test_solve_k_rejects_k_above_bound():
    search = IncrementalKSearch(mycielski_graph(3), 4)
    with pytest.raises(ValueError):
        search.solve_k(5)
    # Querying at the encoded horizon itself is legal — there are simply
    # no colors to switch off (myciel3 is 4-chromatic).
    status, coloring, _ = search.solve_k(4)
    assert status == SAT
    assert is_proper(mycielski_graph(3), coloring)


# -------------------------------------------------------------- pipeline layer
FAMILIES = [
    ("myciel3", lambda: mycielski_graph(3)),
    ("myciel4", lambda: mycielski_graph(4)),
    ("queens5", lambda: queens_graph(5, 5)),
    # queens7 (not 6): chi(queens7) = 7 equals the row-clique bound, so
    # both descents terminate without the (hours-hard) UNSAT-at-6 proof.
    ("queens7", lambda: queens_graph(7, 7)),
    ("crown8", lambda: crown_graph(8)),
    ("wheel9", lambda: wheel_graph(9)),
    ("kneser7_2", lambda: kneser_graph(7, 2)),
    ("book30", lambda: book_graph(30, 60, seed=5)),
    ("register", lambda: interference_graph(24, 40, 4, seed=2)),
    ("gnp18", lambda: gnp_graph(18, 0.4, seed=9)),
    ("gnm20", lambda: gnm_graph(20, 60, seed=4)),
]


@pytest.mark.parametrize("strategy", ["linear", "binary"])
@pytest.mark.parametrize("name,build", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_incremental_matches_scratch_over_families(name, build, strategy):
    graph = build()
    incremental = chromatic_number_sat(
        graph, strategy=strategy, incremental=True, time_limit=120
    )
    scratch = chromatic_number_sat(
        graph, strategy=strategy, incremental=False, time_limit=120
    )
    assert incremental.status == "OPTIMAL"
    assert scratch.status == "OPTIMAL"
    assert incremental.chromatic_number == scratch.chromatic_number
    assert is_proper(graph, incremental.coloring)
    assert is_proper(graph, scratch.coloring)
    assert len(set(incremental.coloring.values())) == incremental.chromatic_number
    assert incremental.solvers_created <= 1
    assert incremental.incremental and not scratch.incremental


@given(
    n=st.integers(min_value=1, max_value=10),
    p=st.floats(min_value=0.1, max_value=0.7),
    seed=st.integers(min_value=0, max_value=1000),
    strategy=st.sampled_from(["linear", "binary"]),
    cap_offset=st.sampled_from([None, -1, 0, 1]),
)
def test_incremental_matches_scratch_random_graphs(n, p, seed, strategy, cap_offset):
    # n/p are kept small enough that every descent finishes well inside
    # the time limit on any machine; should one run still be cut short
    # (status SAT, bound unproved), agreement on chi cannot be expected
    # and the example is skipped rather than failed.
    graph = gnp_graph(n, p, seed=seed)
    exact = exact_chromatic_number(graph, time_limit=60)
    if not exact.optimal:
        return  # timed out on a slow machine: no reference
    chi = exact.chromatic_number
    cap = None if cap_offset is None else chi + cap_offset
    incremental = chromatic_number_sat(
        graph, strategy=strategy, incremental=True, time_limit=60,
        max_colors=cap,
    )
    scratch = chromatic_number_sat(
        graph, strategy=strategy, incremental=False, time_limit=60,
        max_colors=cap,
    )
    if cap is not None and cap < chi:
        # A cap below chi is infeasible on both sides, never loosened.
        assert incremental.status == scratch.status == "UNSAT"
        assert incremental.coloring is None and scratch.coloring is None
        return
    assert "UNSAT" not in (incremental.status, scratch.status)
    if not (incremental.status == scratch.status == "OPTIMAL"):
        return  # timed out on a slow machine: nothing to compare
    assert incremental.chromatic_number == scratch.chromatic_number
    assert incremental.chromatic_number == chi
    if graph.num_vertices:
        assert is_proper(graph, incremental.coloring)
        assert is_proper(graph, scratch.coloring)
        assert len(set(scratch.coloring.values())) == chi


@pytest.mark.parametrize("sbp", ["none", "nu", "sc", "nu+sc"])
def test_incremental_descent_with_cnf_sbps(sbp):
    g = queens_graph(4, 4)
    result = chromatic_number_sat(
        g, strategy="linear", sbp_kind=sbp, incremental=True, time_limit=60
    )
    assert result.status == "OPTIMAL" and result.chromatic_number == 5
    assert is_proper(g, result.coloring)


def test_incremental_binary_uses_core_to_skip(monkeypatch):
    # The unsat core over colors can only ever tighten lo upward; verify
    # the bisection still answers correctly when cores fire.
    g = mycielski_graph(4)  # chi 5, clique bound 2: wide binary range
    result = chromatic_number_sat(
        g, strategy="binary", incremental=True, time_limit=120
    )
    assert result.status == "OPTIMAL" and result.chromatic_number == 5
    # Every queried K below chi must have been answered UNSAT.
    assert all(s == UNSAT for k, s in result.k_queries if k < 5)
