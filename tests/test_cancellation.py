"""Cancellation and time-limit paths across the API surface.

The contract under test (see ``repro.api.results.RunContext``): time
limits make the *engine* give up with UNKNOWN/best-so-far; the cancel
predicate is polled between stages, between K queries, *and inside
each query* (every few dozen conflicts in the CDCL search loop) and
makes the run return its best-so-far answer with ``cancelled=True`` —
neither ever raises.  The in-query polling closes the gap the ROADMAP
flagged after PR 4: a single monster UNSAT query inside a
``Session.chromatic`` used to be uninterruptible without the batch
layer's hard kill.  The batch layer's timeout -> fallback-promotion
path on top of this plumbing is covered in ``tests/test_batch.py``.
"""

import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.api import (
    BudgetedOptimize,
    ChromaticProblem,
    DecisionProblem,
    Pipeline,
    Session,
)
from repro.core.formula import Formula
from repro.experiments.instances import get_instance
from repro.graphs.graph import Graph
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.sat.cdcl import CDCLSolver


class FlipAfter:
    """A cancel predicate that turns true after N polls."""

    def __init__(self, polls: int):
        self.remaining = polls

    def __call__(self) -> bool:
        self.remaining -= 1
        return self.remaining < 0


def test_session_decide_time_limit_expiry_returns_unknown():
    # queens 6x6 at K=6 is a hard UNSAT proof; 0.2s cannot finish it.
    with Session(queens_graph(6, 6)) as session:
        result = session.decide(6, time_limit=0.2)
        assert result.status == "UNKNOWN"
        assert not result.solved
        assert session.queries == [(6, "UNKNOWN")]
        # The session survives an expired query: the same persistent
        # solver answers the easier budget afterwards.
        follow_up = session.decide(7)
        assert follow_up.status == "SAT"
        assert session.solvers_created == 1


def test_session_chromatic_cancel_returns_best_so_far():
    # Cancelled before the first K query: the heuristic bound comes
    # back as the best-so-far answer instead of an exception.
    cancel = FlipAfter(0)
    with Session(mycielski_graph(4), cancel=cancel) as session:
        result = session.chromatic()
    assert result.cancelled
    # Heuristic bound, optimality unproved: the degraded-but-verified
    # FEASIBLE contract.
    assert result.status == "FEASIBLE"
    assert result.degraded
    assert result.num_colors is not None
    assert result.coloring is not None


def test_pipeline_cancel_optimize_flow_returns_cancelled_unknown():
    result = (Pipeline()
              .solve(backend="pb-pbs2", time_limit=5)
              .run(BudgetedOptimize(mycielski_graph(4), 6),
                   cancel=lambda: True))
    assert result.cancelled
    assert result.status == "UNKNOWN"
    assert not result.solved


def test_pipeline_cancel_chromatic_descent_returns_best_so_far():
    result = (Pipeline()
              .solve(backend="cdcl-incremental", time_limit=5)
              .run(ChromaticProblem(mycielski_graph(4)),
                   cancel=lambda: True))
    assert result.cancelled
    assert result.status == "FEASIBLE"
    assert result.degraded
    # Best-so-far: a proper coloring exists even though the descent
    # never got to prove optimality.
    assert result.num_colors is not None
    assert result.coloring is not None


PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], name="P4")


@pytest.mark.parametrize("graph", [PATH4, queens_graph(5, 5)],
                         ids=["P4", "queen5_5"])
@pytest.mark.parametrize(
    "backend", ["cdcl-incremental", "cdcl-scratch", "pb-pbs2", "exact-dsatur"])
def test_a_proved_chromatic_answer_is_not_cancelled(backend, graph):
    # The cancel is already true, but bounds alone can settle these:
    # P4 peels away entirely, and queen5_5's clique bound meets DSATUR
    # before any K query.  A proved answer is never "cancelled"; an
    # unproved one under this cancel always is.
    result = (Pipeline()
              .solve(backend=backend)
              .run(ChromaticProblem(graph), cancel=lambda: True))
    assert result.cancelled is not result.solved
    if graph is PATH4:
        assert result.status == "OPTIMAL" and result.num_colors == 2


def test_an_exact_dsatur_coloring_settles_a_decision_despite_a_cancel():
    # The cancel turns true at its 3rd poll, inside the search; the
    # search stops with an 8-coloring of queen6_6, which settles the
    # decision.  A conclusive answer is never "cancelled", as on the
    # cdcl-* backends.
    graph = queens_graph(6, 6)
    result = (Pipeline()
              .solve(backend="exact-dsatur")
              .run(DecisionProblem(graph, 8), cancel=FlipAfter(2)))
    assert result.status == "SAT" and not result.cancelled
    assert graph.is_proper_coloring(result.coloring)
    assert len(set(result.coloring.values())) <= 8


def test_pipeline_time_limit_chromatic_gives_unproved_bound():
    result = (Pipeline()
              .solve(backend="cdcl-incremental", time_limit=0.2)
              .run(ChromaticProblem(queens_graph(6, 6))))
    # The SAT chain descends fast; the K=6 UNSAT proof does not fit in
    # the budget, so the answer is a feasible-but-unproved bound.
    assert result.status in ("FEASIBLE", "UNKNOWN")
    assert not result.solved
    if result.status == "FEASIBLE":
        assert result.degraded
        assert result.num_colors is not None
        assert result.upper_bound == result.num_colors


QUEENS9 = queens_graph(9, 9)  # chi = 10: no run below finishes in 2 s
C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)], name="C5")

LIMITED_PROBLEMS = {
    "decision-9": DecisionProblem(QUEENS9, 9),
    "chromatic": ChromaticProblem(QUEENS9),
    "chromatic-cap-11": ChromaticProblem(QUEENS9, max_colors=11),
    "budgeted-11": BudgetedOptimize(QUEENS9, 11),
    # brute enumerates every assignment: a tiny graph, answered at once.
    "C5-decision-3": DecisionProblem(C5, 3),
    "C5-chromatic": ChromaticProblem(C5),
    "C5-chromatic-cap-4": ChromaticProblem(C5, max_colors=4),
}
CNF_KINDS = ("decision-9", "chromatic", "chromatic-cap-11")
ALL_KINDS = CNF_KINDS + ("budgeted-11",)
LIMITED_RUNS = [
    (backend, kind)
    for backend, kinds in (
        ("cdcl-incremental", CNF_KINDS),
        ("cdcl-scratch", CNF_KINDS),
        ("pb-pbs2", ALL_KINDS),
        ("exact-dsatur", CNF_KINDS),
        ("pb-galena", ALL_KINDS),
        ("pb-pueblo", ALL_KINDS),
        ("cplex-bb", ALL_KINDS),
        ("portfolio", CNF_KINDS),
        ("brute", ("C5-decision-3", "C5-chromatic", "C5-chromatic-cap-4")),
    )
    for kind in kinds
]

# cplex-bb's run is its first in a fresh interpreter: that run imports
# numpy and scipy (most of a second), and the limit must cover it.
_FIRST_RUN = """
import json, pickle, sys, time
from repro.api import Pipeline
problem = pickle.load(sys.stdin.buffer)
assert not {"numpy", "scipy"} & set(sys.modules)
start = time.monotonic()
result = Pipeline().solve(backend=sys.argv[1], time_limit=2).run(problem)
print(json.dumps([time.monotonic() - start, result.status, result.queries,
                  result.solvers_created]))
"""


def _run_on_a_2s_limit(backend, problem):
    """(wall seconds, status, queries, solvers created) of one run."""
    if backend != "cplex-bb":
        start = time.monotonic()
        result = Pipeline().solve(backend=backend, time_limit=2).run(problem)
        return (time.monotonic() - start, result.status, result.queries,
                result.solvers_created)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _FIRST_RUN, backend],
                          input=pickle.dumps(problem), capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("backend,kind", LIMITED_RUNS,
                         ids=[f"{b}-{k}" for b, k in LIMITED_RUNS])
def test_cdcl_runs_hold_their_time_limit(backend, kind):
    # One Deadline bounds the whole run: kernelization, encoding,
    # preprocessing, the cap query and every K query spend from it —
    # on the CNF backends, the 0-1 ILP flow, the DSATUR search and the
    # portfolio's racers alike.
    problem = LIMITED_PROBLEMS[kind]
    elapsed, status, queries, solvers = _run_on_a_2s_limit(backend, problem)
    assert elapsed <= 2.4, f"{backend} took {elapsed:.2f}s on a 2s limit"
    assert status in ("SAT", "UNKNOWN", "FEASIBLE", "OPTIMAL")
    if getattr(problem, "max_colors", None) is not None:
        # The cap query seeds the descent: no K above the cap is asked.
        assert all(k <= problem.max_colors for k, _ in queries)
    if backend == "cdcl-incremental":
        assert solvers <= 1


def _detecting_pipeline(time_limit, **symmetry):
    return (Pipeline()
            .reduce(False)
            .symmetry(sbp_kind="nu+sc", instance_dependent=True, **symmetry)
            .solve(backend="pb-pbs2", time_limit=time_limit))


@pytest.mark.parametrize("n", [4, 5], ids=["myciel4", "myciel5"])
def test_detection_holds_the_time_limit(n):
    # With nu+sc at K=8 the formula-graph search runs for seconds
    # (myciel4) to minutes (myciel5).  The detect stage polls the
    # preparation deadline at every search node and unwinds, so the
    # solve stage still gets its share of the 2 s.
    graph = mycielski_graph(n)
    start = time.monotonic()
    result = _detecting_pipeline(2).run(BudgetedOptimize(graph, 8))
    elapsed = time.monotonic() - start
    assert elapsed <= 2.4, f"myciel{n} took {elapsed:.2f}s on a 2s limit"
    assert result.detection.complete is False
    if result.coloring is not None:
        assert graph.is_proper_coloring(result.coloring)


def test_simplify_holds_the_time_limit():
    # DSJC125.9 is dense (average degree 111): with nu+sc at K=8 the
    # formula is small, but subsumption has long occurrence lists to
    # test, so simplification costs much more than the encoding and the
    # PB load, which do not poll the deadline.  simplify_formula spends
    # from the preparation deadline like detection does, so the solve
    # stage still gets its share.
    graph = get_instance("DSJC125.9").graph()
    start = time.monotonic()
    result = (Pipeline()
              .reduce(False)
              .symmetry(sbp_kind="nu+sc")
              .solve(backend="pb-pbs2", time_limit=2)
              .run(BudgetedOptimize(graph, 8)))
    elapsed = time.monotonic() - start
    assert elapsed <= 2.4, f"DSJC125.9 took {elapsed:.2f}s on a 2s limit"
    # Its clique bound is 31, so no 8-coloring can come back.
    assert result.status in ("UNSAT", "UNKNOWN")
    assert result.coloring is None


def test_a_deadline_cut_detection_is_not_cached():
    # A report the deadline cut short is used but never stored: a later
    # run with a generous limit must not inherit its partial generators.
    # A node-limit cut repeats exactly, so it is stored.
    problem = BudgetedOptimize(mycielski_graph(4), 8)
    cache = {}
    cut = _detecting_pipeline(0.4).run(problem, detection_cache=cache)
    assert cut.detection is not None and cut.detection.complete is False
    assert cache == {}
    limited = _detecting_pipeline(None, detection_node_limit=5).run(
        problem, detection_cache=cache)
    assert limited.detection.complete is False
    assert limited.detection.nodes_explored == 5
    assert list(cache.values()) == [limited.detection]


def test_exact_dsatur_honours_the_run_cancel():
    # Left alone, the branch and bound on myciel5 is still searching
    # after 3 s (it proves chi = 6 after about 470k nodes, 8.5 s of CPU
    # on a 2-cpu box); a cancel that turns true at 0.2 s stops it within
    # the next 256 nodes, with the verified incumbent.
    graph = mycielski_graph(5)
    problem = ChromaticProblem(graph)
    pipeline = Pipeline().solve(backend="exact-dsatur", time_limit=3)
    unfinished = pipeline.run(problem)
    assert unfinished.status == "FEASIBLE" and not unfinished.cancelled
    start = time.monotonic()
    result = pipeline.run(problem, cancel=lambda: time.monotonic() - start >= 0.2)
    assert time.monotonic() - start < 1.0
    assert result.cancelled
    assert result.status == "FEASIBLE"
    assert graph.is_proper_coloring(result.coloring)


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


def test_solver_should_stop_interrupts_mid_query():
    # The hole-count makes the refutation cost thousands of conflicts;
    # the stop predicate (polled every 64 conflicts) must cut it short
    # long before that, and the solver must survive for the next call.
    solver = CDCLSolver()
    assert solver.add_formula(_pigeonhole(7, 6))
    polls = FlipAfter(3)
    result = solver.solve(should_stop=polls)
    assert result.status == "UNKNOWN"
    assert polls.remaining < 0  # the predicate really was consulted
    assert result.stats.conflicts < 1000  # far short of the full proof
    # The same solver still finishes the proof when left alone.
    assert solver.solve().is_unsat


def test_interrupt_at_decision_poll_never_loses_vsids_vars():
    """An interrupt that fires at the decision poll must push the
    just-popped variable back on the VSIDS heap — losing it would make
    a later solve() on the same solver "run out" of variables and
    report a false SAT model."""
    solver = CDCLSolver()
    solver.add_clause([1, 2])
    for _ in range(4):
        # stats.decisions is cumulative, so align the counter with the
        # poll mask each round to force the interrupt mid-decision.
        solver.stats.decisions = 1023
        interrupted = solver.solve(should_stop=lambda: True)
        assert interrupted.status == "UNKNOWN"
    solver.stats.decisions = 0
    result = solver.solve()
    assert result.is_sat
    assert result.model[1] or result.model[2]  # the clause really holds


def test_session_cancel_interrupts_monster_unsat_query():
    """The ROADMAP gap: queens 6x6 at K=6 is an UNSAT proof far beyond
    any test budget, and the session has NO time limit — only the
    cancel predicate, which must fire *inside* the query."""
    start = time.monotonic()
    cancel = lambda: time.monotonic() - start > 0.5  # noqa: E731
    with Session(queens_graph(6, 6), cancel=cancel) as session:
        result = session.decide(6)  # no time_limit on purpose
    elapsed = time.monotonic() - start
    assert result.status == "UNKNOWN"
    assert result.cancelled
    assert elapsed < 30, f"in-query cancellation took {elapsed:.1f}s"


def test_session_chromatic_cancel_interrupts_mid_descent():
    # The descent reaches the monster K=6 UNSAT query after two cheap
    # SAT queries; the cancel must interrupt it from inside and the
    # best-so-far (K=7) answer must survive.
    start = time.monotonic()
    cancel = lambda: time.monotonic() - start > 1.0  # noqa: E731
    with Session(queens_graph(6, 6), cancel=cancel) as session:
        result = session.chromatic(strategy="linear")
    elapsed = time.monotonic() - start
    assert result.cancelled
    assert result.status == "FEASIBLE"
    assert result.degraded
    assert result.num_colors is not None
    assert result.coloring is not None
    assert elapsed < 30, f"in-query cancellation took {elapsed:.1f}s"


def test_pipeline_cancel_interrupts_mid_query():
    start = time.monotonic()
    cancel = lambda: time.monotonic() - start > 1.0  # noqa: E731
    result = (Pipeline()
              .solve(backend="cdcl-incremental")  # no time limit
              .run(ChromaticProblem(queens_graph(6, 6)), cancel=cancel))
    elapsed = time.monotonic() - start
    assert result.cancelled
    assert result.status in ("FEASIBLE", "UNKNOWN")
    assert elapsed < 30, f"in-query cancellation took {elapsed:.1f}s"


def test_cancel_cannot_revoke_a_bounds_proved_optimum():
    # queens 4x4: the clique bound meets the DSATUR bound, so the
    # chromatic number is proved without any solver query — a cancel
    # request cannot take the already-proved answer away.
    result = (Pipeline()
              .solve(backend="cdcl-incremental")
              .run(ChromaticProblem(queens_graph(4, 4)),
                   cancel=lambda: True))
    assert result.status == "OPTIMAL"
    assert result.num_colors == 5
    assert result.queries == []


def test_pb_minimize_linear_should_stop_interrupts_descent():
    """The PB bound-tightening loop must poll should_stop both between
    probes and inside each solve (the RPR002 invariant, extended to the
    optimizer in the static-analysis PR)."""
    from repro.pb.optimizer import minimize

    f = _pigeonhole(7, 7)  # SAT, but a costly minimum
    f.set_objective([(1, v) for v in range(1, 8)])
    polls = FlipAfter(0)  # cancel at the very first loop-top poll
    result = minimize(f, strategy="linear", should_stop=polls)
    assert result.status == "UNKNOWN"
    assert polls.remaining < 0  # the predicate really was consulted


def test_pb_minimize_binary_should_stop_interrupts_bisection():
    from repro.pb.optimizer import minimize

    f = _pigeonhole(7, 7)
    f.set_objective([(1, v) for v in range(1, 8)])
    for incremental in (True, False):
        polls = FlipAfter(0)  # cancel before the feasibility probe solves
        result = minimize(f, strategy="binary", incremental=incremental,
                          should_stop=polls)
        assert result.status == "UNKNOWN"
        assert polls.remaining < 0


def test_pipeline_pb_backend_cancel_interrupts_minimize():
    # The PB backends now thread ctx.cancel into the optimizer: a
    # cancel that fires mid-minimize must come back as best-so-far.
    start = time.monotonic()
    cancel = lambda: time.monotonic() - start > 0.5  # noqa: E731
    result = (Pipeline()
              .solve(backend="pb-pbs2")  # no time limit on purpose
              .run(BudgetedOptimize(queens_graph(6, 6), 8), cancel=cancel))
    elapsed = time.monotonic() - start
    assert result.cancelled or result.solved
    assert elapsed < 30, f"in-query cancellation took {elapsed:.1f}s"


def test_bb_optimize_should_stop_interrupts_search():
    from repro.ilp.branch_and_bound import BranchAndBoundSolver

    f = _pigeonhole(6, 6)
    f.set_objective([(1, v) for v in range(1, 7)])
    polls = FlipAfter(0)  # cancel at the first node poll
    result = BranchAndBoundSolver().optimize(f, should_stop=polls)
    assert result.status == "UNKNOWN"
    assert polls.remaining < 0
