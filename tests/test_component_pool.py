"""Differential harness for the per-component Session pool.

The pool's contract: composing kernelization (component split) with
per-component persistent solvers NEVER changes answers.  On
hypothesis-generated disconnected graphs — disjoint unions of 2-4
components drawn from the generator families — the chromatic number
must agree across four independent engines:

* the component pool (``cdcl-incremental`` + ``split_components``),
* the single whole-kernel persistent solver (``split_components=False``),
* from-scratch solving (``cdcl-scratch``),
* the DSATUR branch and bound (``exact-dsatur``, no formula pipeline),

and every reported coloring must properly color its graph — checked
per component as well as end to end (``repro.coloring.verify``).

Profiles: deterministic seeds in PRs, fresh seeds nightly — see
``tests/conftest.py``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.api import ChromaticProblem, ComponentSessionPool, Pipeline
from repro.coloring.verify import is_proper
from repro.experiments.instances import get_instance
from repro.graphs.analysis import connected_components
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


def chromatic(graph, backend, **solve_kwargs):
    return (
        Pipeline()
        .solve(backend=backend, time_limit=120, **solve_kwargs)
        .run(ChromaticProblem(graph))
    )


@given(UNIONS)
def test_pool_agrees_with_single_solver_scratch_and_dsatur(graph):
    """The differential property: four engines, one chromatic number."""
    pool = chromatic(graph, "cdcl-incremental", split_components=True)
    whole = chromatic(graph, "cdcl-incremental", split_components=False)
    scratch = chromatic(graph, "cdcl-scratch")
    dsatur = chromatic(graph, "exact-dsatur")
    assert pool.status == "OPTIMAL"
    assert whole.status == "OPTIMAL"
    assert scratch.status == "OPTIMAL"
    assert dsatur.status == "OPTIMAL"
    assert (
        pool.chromatic_number
        == whole.chromatic_number
        == scratch.chromatic_number
        == dsatur.chromatic_number
    )
    for result in (pool, whole, scratch, dsatur):
        assert result.coloring is not None
        assert is_proper(graph, result.coloring)
        assert len(set(result.coloring.values())) == result.chromatic_number


@given(UNIONS)
def test_pool_per_component_models_and_provenance(graph):
    """Structural contract of the pool itself: one persistent solver per
    component at most, per-component traces, per-component proper
    colorings."""
    with ComponentSessionPool(graph) as pool:
        result = pool.chromatic()
        assert result.status == "OPTIMAL"
        assert len(pool.sessions) == len(pool.components)
        assert len(result.components) == len(pool.components)
        assert result.solvers_created == sum(
            trace.solvers_created for trace in result.components
        )
        for trace in result.components:
            assert trace.status == "OPTIMAL"
            assert trace.solvers_created <= 1  # one persistent solver each
            assert trace.vertices == len(pool.components[trace.index])
        # Largest-first scheduling.
        sizes = [trace.vertices for trace in result.components]
        assert sizes == sorted(sizes, reverse=True)
        # The merged coloring restricted to every *original* component is
        # itself a proper model of that component.
        assert is_proper(graph, result.coloring)
        for component in connected_components(graph):
            sub = graph.subgraph(component)
            sub_coloring = {
                local: result.coloring[original]
                for local, original in enumerate(component)
            }
            assert is_proper(sub, sub_coloring)


# --------------------------------------------------------------- fixed cases
def test_pool_on_union_of_two_registry_instances():
    """The acceptance benchmark: a union of two registry instances runs
    one persistent solver per component and matches scratch."""
    graph = disjoint_union(
        get_instance("myciel3").graph(), get_instance("myciel4").graph()
    )
    pool = chromatic(graph, "cdcl-incremental", split_components=True)
    scratch = chromatic(graph, "cdcl-scratch")
    assert scratch.status == "OPTIMAL"
    assert pool.status == "OPTIMAL"
    assert pool.chromatic_number == scratch.chromatic_number == 5
    # One persistent solver per component, visible in the merged result.
    assert len(pool.components) == 2
    assert pool.solvers_created == 2
    for trace in pool.components:
        assert trace.status == "OPTIMAL"
        assert trace.solvers_created == 1
        assert trace.queries, "component descent must have queried the solver"
    assert pool.provenance.backend == "cdcl-incremental"
    assert pool.provenance.config["split_components"] is True
    # The whole-kernel run keeps its historical single-solver shape.
    whole = chromatic(graph, "cdcl-incremental", split_components=False)
    assert whole.chromatic_number == 5
    assert whole.solvers_created <= 1
    assert whole.components == []


def test_pool_respects_max_colors_cap():
    graph = disjoint_union(
        get_instance("myciel3").graph(), get_instance("myciel4").graph()
    )
    capped = (Pipeline()
              .solve(backend="cdcl-incremental", time_limit=120)
              .run(ChromaticProblem(graph, max_colors=4)))
    assert capped.status == "UNSAT"  # myciel4 needs 5
    exact = (Pipeline()
             .solve(backend="cdcl-incremental", time_limit=120)
             .run(ChromaticProblem(graph, max_colors=5)))
    assert exact.status == "OPTIMAL"
    assert exact.chromatic_number == 5


def test_pool_processes_agree_with_threads_and_sequential():
    """The process tier is answer-identical to the in-process tiers."""
    graph = disjoint_union(
        get_instance("myciel3").graph(),
        get_instance("myciel4").graph(),
        cycle_graph(7),
    )
    sequential = chromatic(graph, "cdcl-incremental", split_components=True)
    processes = chromatic(
        graph, "cdcl-incremental", split_components=True, pool_jobs=3
    )
    assert sequential.status == processes.status == "OPTIMAL"
    assert sequential.chromatic_number == processes.chromatic_number == 5
    assert len(processes.components) == 3
    for trace in processes.components:
        assert trace.status == "OPTIMAL"
    assert is_proper(graph, processes.coloring)
    assert len(set(processes.coloring.values())) == 5


def test_pool_unsat_early_exit_kills_process_siblings(monkeypatch):
    """Same regression on the process tier: the worker solving the big
    component is stalled via the fault seam; the small component's
    UNSAT must terminate it rather than wait the stall out."""
    import json
    import time as time_mod

    stall = [{"point": "racer", "kind": "sleep", "at": 1,
              "seconds": 30.0, "match": "component:0"}]
    monkeypatch.setenv("REPRO_FAULTS", json.dumps(stall))
    graph = disjoint_union(mycielski_graph(5), mycielski_graph(3))
    t0 = time_mod.monotonic()
    with ComponentSessionPool(graph, jobs=2) as pool:
        result = pool.chromatic(max_colors=3)
    assert time_mod.monotonic() - t0 < 20.0
    assert result.status == "UNSAT"
    # The stalled sibling was killed before settling: no trace for it.
    assert [trace.index for trace in result.components] == [1]
    assert not result.cancelled
    assert not result.degraded


def test_connected_kernel_falls_back_to_whole_kernel_descent():
    result = chromatic(
        mycielski_graph(4), "cdcl-incremental", split_components=True
    )
    assert result.status == "OPTIMAL" and result.chromatic_number == 5
    assert result.components == []  # pool did not engage
    assert result.solvers_created == 1


def test_pool_cancel_returns_best_so_far():
    graph = disjoint_union(mycielski_graph(4), mycielski_graph(4))
    pool = ComponentSessionPool(graph, cancel=lambda: True)
    result = pool.chromatic()
    assert result.cancelled
    assert result.status in ("FEASIBLE", "UNKNOWN")
    assert result.coloring is not None  # the heuristic incumbents survive
    assert is_proper(graph, result.coloring)


def test_pool_rejects_growth_unsafe_sbp():
    from repro.api import PipelineConfig, SymmetryConfig

    config = PipelineConfig(symmetry=SymmetryConfig(sbp_kind="nu"))
    with pytest.raises(ValueError, match="growth-safe"):
        ComponentSessionPool(disjoint_union(queens_graph(4, 4), wheel_graph(6)),
                             config=config)
    # Through the backend the same config silently falls back to the
    # whole-kernel descent instead of erroring.
    result = (
        Pipeline()
        .symmetry(sbp_kind="nu")
        .solve(backend="cdcl-incremental", time_limit=120)
        .run(ChromaticProblem(disjoint_union(queens_graph(4, 4), wheel_graph(6))))
    )
    assert result.status == "OPTIMAL"
    assert result.components == []
