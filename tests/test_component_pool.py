"""Differential harness for chromatic runs on disconnected graphs.

A disconnected kernel gets one whole-kernel descent on the CNF
backends, while ``exact-dsatur`` and ``pb-pbs2`` split the kernel into
components through the shared reduce stage (``run_reduced``).  On
hypothesis-generated disconnected graphs — disjoint unions of 2-4
components drawn from the generator families — the chromatic number
must agree across four engines:

* the persistent whole-kernel descent (``cdcl-incremental``),
* from-scratch solving (``cdcl-scratch``),
* the DSATUR branch and bound per component (``exact-dsatur``),
* the 0-1 ILP flow per component (``pb-pbs2``),

and every reported coloring must properly color its graph
(``repro.coloring.verify``).

The module keeps its historical name and test ids: ``make fuzz-smoke``
and CI run it by path.  Profiles: deterministic seeds in PRs, fresh
seeds nightly — see ``tests/conftest.py``.
"""

from hypothesis import example, given, strategies as st

from repro.api import ChromaticProblem, Pipeline
from repro.coloring.verify import is_proper
from repro.experiments.instances import get_instance
from repro.graphs.generators import (
    book_graph,
    crown_graph,
    gnp_graph,
    mycielski_graph,
    queens_graph,
    wheel_graph,
)
from repro.graphs.graph import Graph, disjoint_union


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# One strategy per generator family, sized to keep every engine (the
# brute-ish scratch descent included) under a second per component.
COMPONENT = st.one_of(
    st.builds(mycielski_graph, st.integers(2, 3)),
    st.builds(queens_graph, st.integers(3, 4), st.integers(3, 4)),
    st.builds(wheel_graph, st.integers(4, 9)),
    st.builds(cycle_graph, st.integers(3, 9)),
    st.builds(crown_graph, st.integers(3, 5)),
    st.builds(
        gnp_graph,
        st.integers(4, 12),
        st.sampled_from([0.3, 0.5, 0.7]),
        st.integers(0, 10_000),
    ),
    st.builds(
        book_graph,
        st.integers(9, 12),
        st.integers(6, 18),
        st.integers(0, 10_000),
    ),
)

UNIONS = st.lists(COMPONENT, min_size=2, max_size=4).map(
    lambda graphs: disjoint_union(*graphs)
)

# A union on which a whole-graph DSATUR branch and bound explores the
# product of the components' search trees: tens of seconds, and past the
# 120 s limit on a slow runner.  Its kernel is empty, so the reduce
# stage answers it.
DSATUR_PRODUCT_UNION = disjoint_union(
    mycielski_graph(3), mycielski_graph(2), wheel_graph(5),
    book_graph(12, 13, 155),
)


def chromatic(graph, backend, time_limit=120, **kwargs):
    return (
        Pipeline()
        .solve(backend=backend, time_limit=time_limit)
        .run(ChromaticProblem(graph), **kwargs)
    )


@given(UNIONS)
@example(DSATUR_PRODUCT_UNION)
def test_pool_agrees_with_single_solver_scratch_and_dsatur(graph):
    """The differential property: four engines, one chromatic number."""
    results = [
        chromatic(graph, backend)
        for backend in ("cdcl-incremental", "cdcl-scratch", "exact-dsatur",
                        "pb-pbs2")
    ]
    assert [r.status for r in results] == ["OPTIMAL"] * 4
    assert len({r.chromatic_number for r in results}) == 1
    for result in results:
        assert result.coloring is not None
        assert is_proper(graph, result.coloring)
        assert len(set(result.coloring.values())) == result.chromatic_number


# --------------------------------------------------------------- fixed cases
def test_pool_on_union_of_two_registry_instances():
    """A union of two registry instances: one persistent solver over
    the whole kernel, matching scratch."""
    graph = disjoint_union(
        get_instance("myciel3").graph(), get_instance("myciel4").graph()
    )
    whole = chromatic(graph, "cdcl-incremental")
    scratch = chromatic(graph, "cdcl-scratch")
    assert whole.status == scratch.status == "OPTIMAL"
    assert whole.chromatic_number == scratch.chromatic_number == 5
    assert whole.solvers_created == 1
    assert whole.stages[0].details["components"] == 2
    assert whole.provenance.backend == "cdcl-incremental"


def test_pool_respects_max_colors_cap():
    """A cap below one component's chromatic number is an exact UNSAT,
    neither cancelled nor degraded."""
    graph = disjoint_union(mycielski_graph(3), mycielski_graph(4))
    for cap, status in ((4, "UNSAT"), (5, "OPTIMAL")):  # myciel4 needs 5
        result = (Pipeline()
                  .solve(backend="cdcl-incremental", time_limit=120)
                  .run(ChromaticProblem(graph, max_colors=cap)))
        assert result.status == status, (cap, result.status)
        assert not result.cancelled
        assert not result.degraded
        if status == "OPTIMAL":
            assert result.chromatic_number == cap


def test_pool_unsat_early_exit_skips_later_components():
    """A component's UNSAT under the cap settles the run, and the exact
    UNSAT is neither cancelled nor degraded.  Behind the reduce stage
    the later component is never solved; the whole-kernel descent
    refutes the cap on its one solver."""
    graph = disjoint_union(mycielski_graph(3), wheel_graph(8))
    for backend in ("cdcl-incremental", "exact-dsatur", "pb-pbs2"):
        result = (Pipeline()
                  .solve(backend=backend, time_limit=120)
                  .run(ChromaticProblem(graph, max_colors=3)))
        assert result.status == "UNSAT", backend  # myciel3 needs 4 colors
        assert not result.cancelled
        assert not result.degraded
        assert result.solvers_created == 1
        assert result.stages[0].details["components"] == 2
        if backend != "cdcl-incremental":
            # myciel3 is refuted first; the wheel never starts.
            assert result.stages[0].details["components_solved"] == 0


def test_connected_kernel_falls_back_to_whole_kernel_descent():
    result = chromatic(mycielski_graph(4), "cdcl-incremental")
    assert result.status == "OPTIMAL" and result.chromatic_number == 5
    assert result.solvers_created == 1


def test_pool_cancel_returns_best_so_far():
    graph = disjoint_union(mycielski_graph(4), mycielski_graph(4))
    result = chromatic(graph, "cdcl-incremental", cancel=lambda: True)
    assert result.cancelled
    assert result.status in ("FEASIBLE", "UNKNOWN")
    assert result.coloring is not None  # the heuristic incumbent survives
    assert is_proper(graph, result.coloring)


def test_pool_rejects_growth_unsafe_sbp():
    # A disconnected kernel under a growth-unsafe SBP gets the same
    # whole-kernel descent as any other config.
    result = (
        Pipeline()
        .symmetry(sbp_kind="nu")
        .solve(backend="cdcl-incremental", time_limit=120)
        .run(ChromaticProblem(disjoint_union(queens_graph(4, 4), wheel_graph(6))))
    )
    assert result.status == "OPTIMAL"
    assert result.solvers_created <= 1


def test_exact_dsatur_splits_a_disjoint_union():
    """Behind the reduce stage the branch and bound sees one kernel
    component at a time, never the whole union; this union peels away
    entirely, so it is answered at once."""
    result = chromatic(DSATUR_PRODUCT_UNION, "exact-dsatur", time_limit=2)
    assert result.status == "OPTIMAL" and result.chromatic_number == 5
    assert result.stages[0].name == "reduce"
    assert is_proper(DSATUR_PRODUCT_UNION, result.coloring)
