"""Session semantics: many queries, one persistent solver, upward growth.

The acceptance contract of the API redesign: a :class:`repro.api.Session`
answers >= 2 consecutive queries — decision at K, then K-1, then the
budget raised back up — on *one* persistent solver without re-encoding,
and its answers agree with scratch solving across generator families.

``make fuzz-smoke`` runs this module; nightly CI explores fresh seeds
(profiles in ``tests/conftest.py``), which also reach the growable
encoding through the random-graph property at the bottom.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ChromaticProblem, Pipeline, PipelineConfig, Session, SymmetryConfig
from repro.coloring.sat_pipeline import (
    GROWABLE_SBP_KINDS,
    IncrementalKSearch,
    encode_k_coloring_growable,
)
from repro.coloring.verify import is_proper
from repro.experiments.instances import get_instance
from repro.graphs.generators import (
    book_graph,
    crown_graph,
    gnp_graph,
    kneser_graph,
    mycielski_graph,
    queens_graph,
    wheel_graph,
)
from repro.graphs.graph import Graph
from repro.sat.preprocessing import preprocess, simplify_formula
from repro.sat.result import SAT, UNSAT


# ----------------------------------------------------------- solver identity
def test_one_persistent_solver_across_down_and_up_queries():
    """Decision at K, then K-1, then the budget raised back above K —
    all on the same CDCL solver object, no re-encoding."""
    graph = queens_graph(5, 5)  # chi = 5
    session = Session(graph)
    at_5 = session.decide(5)
    solver = session._search.solver  # the one persistent engine
    at_4 = session.decide(4)
    session.raise_budget(7)
    at_7 = session.decide(7)
    at_5_again = session.decide(5)
    assert (at_5.status, at_4.status, at_7.status, at_5_again.status) == \
        (SAT, UNSAT, SAT, SAT)
    assert session.solvers_created == 1
    assert session._search.solver is solver  # same object throughout
    assert session.budget == 7  # horizon grew in place
    assert at_7.solvers_created == 1
    assert is_proper(graph, at_7.coloring)
    assert len(set(at_7.coloring.values())) <= 7
    assert session.queries == [(5, SAT), (4, UNSAT), (7, SAT), (5, SAT)]


def test_growth_adds_color_groups_instead_of_reencoding():
    """Raising the budget must reuse learned state: the solver keeps its
    clause database (clauses only ever grow) and variable count rises by
    exactly the new color groups."""
    graph = mycielski_graph(3)  # 11 vertices, chi = 4
    session = Session(graph)
    session.decide(3)  # encodes at horizon 3
    solver = session._search.solver
    vars_before = solver.num_vars
    session.raise_budget(5)
    assert session._search.solver is solver
    # 2 new colors x (11 vertices + 1 activator) + 1 extension literal.
    assert solver.num_vars == vars_before + 2 * (graph.num_vertices + 1) + 1
    result = session.decide(4)
    assert result.status == SAT and is_proper(graph, result.coloring)
    assert session.solvers_created == 1


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


@pytest.mark.parametrize("name,build", FAMILIES)
def test_session_agrees_with_scratch(name, build):
    """Session answers (chromatic + the decision queries around chi)
    match from-scratch solving on every generator family."""
    graph = build()
    scratch = (Pipeline().solve(backend="cdcl-scratch", time_limit=120)
               .run(ChromaticProblem(graph)))
    assert scratch.status == "OPTIMAL", name
    chi = scratch.chromatic_number

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
    assert session.solvers_created == 1, name


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
    with pytest.raises(ValueError, match="positive"):
        graph_session.raise_budget(0)


def test_session_rejects_growth_unsafe_sbp():
    config = PipelineConfig(symmetry=SymmetryConfig(sbp_kind="nu"))
    with pytest.raises(ValueError, match="growth-safe"):
        Session(mycielski_graph(3), config=config)
    # SC pins specific colors; new colors never invalidate them.
    session = Session(
        queens_graph(4, 4), config=PipelineConfig(symmetry=SymmetryConfig(sbp_kind="sc"))
    )
    assert session.decide(5).status == SAT
    assert session.decide(4).status == UNSAT
    assert session.solvers_created == 1


def test_session_progress_and_cancellation():
    events = []
    session = Session(mycielski_graph(3), on_progress=events.append)
    session.decide(3)
    session.raise_budget(5)
    assert any(e.stage == "query" for e in events)
    assert any(e.stage == "grow" for e in events)

    # myciel4's DSATUR bound sits above its clique bound, so the descent
    # has real queries to cancel; a cancelled chromatic search returns
    # the best-so-far (heuristic) answer, flagged.
    cancelling = Session(mycielski_graph(4), cancel=lambda: True)
    result = cancelling.chromatic(strategy="linear")
    assert result.cancelled
    assert result.status in ("FEASIBLE", "UNKNOWN")
    assert result.num_colors is not None  # the DSATUR incumbent survives


def test_permanent_queries_rejected_on_growable_search():
    search = IncrementalKSearch(mycielski_graph(3), 4, growable=True)
    with pytest.raises(ValueError, match="permanent"):
        search.solve_k(3, permanent=True)
    with pytest.raises(ValueError, match="growable=True"):
        IncrementalKSearch(mycielski_graph(3), 4).grow_to(6)


def test_session_decide_rejects_an_improper_coloring(monkeypatch):
    def one_color(self, k, time_limit=None, permanent=False, should_stop=None):
        return SAT, {v: 1 for v in self.graph.vertices()}, []

    monkeypatch.setattr(IncrementalKSearch, "solve_k", one_color)
    with pytest.raises(ValueError, match="monochromatic"):
        Session(mycielski_graph(3)).decide(4)


# ------------------------------------------------------- the loaded formula
def _assert_frozen_preprocess_is_simplify(graph, k, sbp_kind):
    """A Session preprocesses its growable encoding with every variable
    frozen, so no literal may be dropped as pure and no variable
    resolved out: the clauses it loads are ``simplify_formula``'s."""
    formula = encode_k_coloring_growable(graph, k, sbp_kind)[0]
    simplified, _ = simplify_formula(formula)
    pre = preprocess(formula, frozen=range(1, formula.num_vars + 1))
    if simplified is None:
        assert pre.is_unsat, (graph.name, k, sbp_kind)
        return
    assert pre.formula.num_vars == simplified.num_vars
    assert [c.literals for c in pre.formula.clauses] == [
        c.literals for c in simplified.clauses], (graph.name, k, sbp_kind)


@pytest.mark.parametrize(
    "name", ["myciel3", "myciel4", "myciel5", "queen5_5", "queen6_6", "huck", "jean"])
def test_session_formula_is_the_simplified_encoding_on_registry_graphs(name):
    graph = get_instance(name).graph()
    for k in range(1, 10):
        for sbp_kind in GROWABLE_SBP_KINDS:
            _assert_frozen_preprocess_is_simplify(graph, k, sbp_kind)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_session_formula_is_the_simplified_encoding_on_random_graphs(n, p, seed):
    graph = gnp_graph(n, p, seed=seed)
    for k in range(1, 10):
        for sbp_kind in GROWABLE_SBP_KINDS:
            _assert_frozen_preprocess_is_simplify(graph, k, sbp_kind)
