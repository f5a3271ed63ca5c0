"""Session semantics: many queries, at most one persistent solver.

The acceptance contract of the API redesign: a :class:`repro.api.Session`
answers consecutive queries — decisions below and above its DSATUR
bound in any order, a chromatic descent — on *one* persistent solver,
encoded once at the DSATUR bound, and its answers agree with scratch
solving across generator families.  Budgets at or above the DSATUR
bound, and below the clique bound, are answered without a solver call.

``make fuzz-smoke`` runs this module; nightly CI explores fresh seeds
(profiles in ``tests/conftest.py``), which reach the Session through
the random-graph property at the bottom.
"""

from functools import lru_cache

import pytest
from hypothesis import given, target
from hypothesis import strategies as st

from repro.api import ChromaticProblem, Pipeline, PipelineConfig, Session, SymmetryConfig
from repro.coloring.exact_dsatur import exact_chromatic_number
from repro.coloring.sat_pipeline import CNF_SBP_KINDS, IncrementalKSearch
from repro.coloring.verify import is_proper
from repro.graphs.cliques import clique_lower_bound
from repro.graphs.coloring_heuristics import dsatur
from repro.graphs.generators import (
    book_graph,
    crown_graph,
    gnp_graph,
    kneser_graph,
    mycielski_graph,
    mycielski_step,
    queens_graph,
    wheel_graph,
)
from repro.graphs.graph import Graph
from repro.sat.result import SAT, UNSAT


def _with_sbp(sbp_kind):
    return PipelineConfig(symmetry=SymmetryConfig(sbp_kind=sbp_kind))


# ----------------------------------------------------------- solver identity
def test_one_persistent_solver_across_down_and_up_queries():
    """Decisions at K-1, K, K+2 and K-1 again, with K the DSATUR bound,
    share one CDCL solver, built at K by the first query."""
    graph = mycielski_graph(4)  # chi = 5, its DSATUR bound; clique bound 2
    session = Session(graph)
    bound = session.budget
    assert bound == dsatur(graph)[1] == 5
    below = session.decide(bound - 1)
    search = session._search
    solver = search.solver  # the one persistent engine
    assert search.max_k == bound
    at = session.decide(bound)
    up = session.decide(bound + 2)
    below_again = session.decide(bound - 1)
    assert (below.status, at.status, up.status, below_again.status) == \
        (UNSAT, SAT, SAT, UNSAT)
    assert session.solvers_created == 1
    assert session._search is search and search.solver is solver
    assert up.solvers_created == 1
    assert is_proper(graph, up.coloring)
    assert len(set(up.coloring.values())) <= bound + 2
    assert session.queries == [(4, UNSAT), (5, SAT), (7, SAT), (4, UNSAT)]


def test_budgets_the_dsatur_and_clique_bounds_settle_make_no_solver_call(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("a budget the bounds settle built a solver")

    monkeypatch.setattr(IncrementalKSearch, "__init__", no_solver)
    graph = queens_graph(5, 5)  # clique bound = DSATUR bound = 5
    heuristic, bound = dsatur(graph)
    assert clique_lower_bound(graph) == bound
    session = Session(graph)
    budgets = range(1, bound + 4)
    for k in budgets:
        result = session.decide(k)
        assert result.solvers_created == 0
        assert result.stats.conflicts == result.stats.decisions == 0
        if k < bound:
            assert result.status == UNSAT and result.coloring is None
        else:
            assert result.status == SAT
            assert result.coloring == {v: c + 1 for v, c in heuristic.items()}
    assert session.solvers_created == 0
    assert session.queries == [(k, SAT if k >= bound else UNSAT) for k in budgets]


def test_session_chromatic_after_decisions_stays_on_one_solver():
    graph = mycielski_graph(4)  # chi = 5
    session = Session(graph)
    assert session.decide(5).status == SAT
    assert session.decide(4).status == UNSAT
    chi = session.chromatic(strategy="binary")
    assert chi.status == "OPTIMAL" and chi.chromatic_number == 5
    assert session.solvers_created == 1
    # Every descent probe below chi is (still) refuted on the shared
    # clause database.
    assert all(status == UNSAT for k, status in chi.queries if k < 5)


# ----------------------------------------------------- agreement with scratch
FAMILIES = [
    ("myciel3", lambda: mycielski_graph(3)),
    ("queens4", lambda: queens_graph(4, 4)),
    ("wheel9", lambda: wheel_graph(9)),
    ("book7", lambda: book_graph(7, 14, seed=5)),
    ("crown8", lambda: crown_graph(8)),
    ("kneser5_2", lambda: kneser_graph(5, 2)),
    ("gnp18", lambda: gnp_graph(18, 0.4, seed=9)),
]


def _solvers_needed(session):
    """One solver if any query fell between the clique and DSATUR
    bounds, which settle every other budget without one."""
    clique = clique_lower_bound(session.graph)
    return int(any(clique <= k < session.budget for k, _ in session.queries))


@lru_cache(maxsize=None)
def _scratch_chromatic_number(name):
    graph = dict(FAMILIES)[name]()
    scratch = (Pipeline().solve(backend="cdcl-scratch", time_limit=120)
               .run(ChromaticProblem(graph)))
    assert scratch.status == "OPTIMAL", name
    return scratch.chromatic_number


@pytest.mark.parametrize("name,build", FAMILIES)
def test_session_agrees_with_scratch(name, build):
    """Session answers (chromatic + the decision queries around chi)
    match from-scratch solving on every generator family."""
    graph = build()
    chi = _scratch_chromatic_number(name)

    session = Session(graph)
    result = session.chromatic(strategy="linear", time_limit=120)
    assert result.status == "OPTIMAL", name
    assert result.chromatic_number == chi, name
    assert is_proper(graph, result.coloring), name
    # Decisions bracket the chromatic number on the same solver.
    assert session.decide(chi).status == SAT, name
    if chi > 1:
        assert session.decide(chi - 1).status == UNSAT, name
    up = session.decide(chi + 2)
    assert up.status == SAT and len(set(up.coloring.values())) <= chi + 2, name
    assert session.solvers_created == _solvers_needed(session), name


@pytest.mark.parametrize("name,build", FAMILIES)
def test_nu_sc_session_agrees_with_scratch(name, build):
    """A Session with the NU chain and the SC pins in its encoding gives
    the scratch answers: the chromatic number, and every decision from
    1 to one above the DSATUR bound."""
    graph = build()
    chi = _scratch_chromatic_number(name)
    session = Session(graph, config=_with_sbp("nu+sc"))
    result = session.chromatic(strategy="binary", time_limit=120)
    assert result.status == "OPTIMAL", name
    assert result.chromatic_number == chi, name
    for k in range(1, session.budget + 2):
        assert session.decide(k).status == (SAT if k >= chi else UNSAT), (name, k)
    assert session.solvers_created == _solvers_needed(session), name


def test_session_binary_and_linear_agree():
    graph = gnp_graph(16, 0.5, seed=3)
    chi_linear = Session(graph).chromatic(strategy="linear")
    chi_binary = Session(graph).chromatic(strategy="binary")
    assert chi_linear.status == chi_binary.status == "OPTIMAL"
    assert chi_linear.chromatic_number == chi_binary.chromatic_number


# ----------------------------------------------------------------- behaviour
def test_session_trivial_and_invalid_budgets():
    session = Session(Graph(0))
    assert session.decide(0).status == SAT
    assert session.chromatic().num_colors == 0
    graph_session = Session(mycielski_graph(3))
    assert graph_session.decide(0).status == UNSAT


def test_session_rejects_sbp_kinds_outside_the_cnf_encoding():
    # LI needs the optimization encoding and CA PB constraints.
    for kind in ("li", "ca"):
        with pytest.raises(ValueError, match="clause-only"):
            Session(mycielski_graph(3), config=_with_sbp(kind))
    # Every CNF kind is accepted, NU chains included: the horizon never
    # grows, so no chain has to be extended.
    session = Session(mycielski_graph(3), config=_with_sbp("nu"))  # chi = 4
    assert session.decide(4).status == SAT
    assert session.decide(3).status == UNSAT
    assert session.solvers_created == 1


def test_session_progress_and_cancellation():
    events = []
    session = Session(mycielski_graph(3), on_progress=events.append)
    session.decide(3)
    assert [e.status for e in events if e.stage == "query"] == [None, UNSAT]

    # myciel4's DSATUR bound sits above its clique bound, so the descent
    # has real queries to cancel; a cancelled chromatic search returns
    # the best-so-far (heuristic) answer, flagged.
    cancelling = Session(mycielski_graph(4), cancel=lambda: True)
    result = cancelling.chromatic(strategy="linear")
    assert result.cancelled
    assert result.status in ("FEASIBLE", "UNKNOWN")
    assert result.num_colors is not None  # the DSATUR incumbent survives


def test_session_decide_rejects_an_improper_coloring(monkeypatch):
    def one_color(self, k, time_limit=None, permanent=False, should_stop=None):
        return SAT, {v: 1 for v in self.graph.vertices()}, []

    monkeypatch.setattr(IncrementalKSearch, "solve_k", one_color)
    # myciel3's DSATUR bound is 4: decide(3) asks the solver.
    with pytest.raises(ValueError, match="monochromatic"):
        Session(mycielski_graph(3)).decide(3)


# ------------------------------------------------------ random-graph property
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10**6),
       st.sampled_from(CNF_SBP_KINDS), st.booleans())
def test_session_decisions_match_the_chromatic_number_on_random_graphs(
        n, p, seed, sbp_kind, lifted):
    """Every decision from 1 to one above the DSATUR bound is SAT exactly
    at and above the chromatic number, on at most one solver.

    The graph is G(n, p) or, ``lifted``, the Mycielskian of G(n // 2, p):
    one color more than G with the same clique number, so the solver has
    budgets to settle between the clique and DSATUR bounds, which few
    small G(n, p) leave (``target`` steers the draws towards them)."""
    if lifted:
        graph = mycielski_step(gnp_graph(n // 2, p, seed=seed))
    else:
        graph = gnp_graph(n, p, seed=seed)
    chi = exact_chromatic_number(graph).chromatic_number
    session = Session(graph, config=_with_sbp(sbp_kind))
    for k in range(1, session.budget + 2):
        result = session.decide(k)
        assert result.status == (SAT if k >= chi else UNSAT), (k, chi)
        if result.status == SAT:
            assert is_proper(graph, result.coloring)
            assert len(set(result.coloring.values())) <= k
    assert session.solvers_created <= 1
    target(float(session.solvers_created))
