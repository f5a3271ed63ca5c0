"""Kernelization bench: how much peeling shrinks sparse benchmarks.

The paper's observation that "realistic graphs are relatively sparse
and have low chromatic numbers" is what makes its instances tractable;
this bench quantifies it — the (K-1)-core of the sparse families is a
small fraction of the input, so the encoded 0-1 ILP shrinks
accordingly.
"""

import pytest

from repro.api import DecisionProblem, Pipeline
from repro.coloring.reduce import peel_low_degree
from repro.experiments.instances import get_instance

SPARSE = [("huck", 11), ("jean", 10), ("miles250", 8)]


@pytest.mark.parametrize("name,k", SPARSE)
def test_peeling_shrinks_sparse_instances(benchmark, name, k, bench_json):
    graph = get_instance(name).graph()
    kernel = benchmark(lambda: peel_low_degree(graph, k))
    assert kernel.graph.num_vertices < graph.num_vertices
    print(f"\n  {name}: {graph.num_vertices} -> {kernel.graph.num_vertices} "
          f"vertices at K={k}")
    _, seconds = bench_json.timed(peel_low_degree, graph, k)
    bench_json.add(name, k=k, vertices=graph.num_vertices,
                   kernel_vertices=kernel.graph.num_vertices,
                   wall_seconds=round(seconds, 6))


@pytest.mark.parametrize("name,k", [("huck", 11), ("jean", 10)])
def test_reduced_solve(benchmark, name, k, bench_json):
    graph = get_instance(name).graph()
    pipe = Pipeline().reduce(True).solve(backend="pb-pbs2", time_limit=30)

    def run():
        return pipe.run(DecisionProblem(graph, k))

    result = benchmark(run)
    assert result.status == "SAT"
    assert graph.is_proper_coloring(result.coloring)
    # One standalone timed run (benchmark() may loop calibration rounds).
    _, seconds = bench_json.timed(run)
    bench_json.add(f"{name}-solve", k=k, status=result.status,
                   components_solved=result.stage("reduce").details["components_solved"],
                   wall_seconds=round(seconds, 4))
