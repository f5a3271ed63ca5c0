"""Known-chromatic-number families pin down every exact pipeline."""

import pytest

from repro.api import BudgetedOptimize, Pipeline
from repro.coloring.coudert import coudert_chromatic_number
from repro.coloring.exact_dsatur import exact_chromatic_number
from repro.coloring.necsp import necsp_chromatic_number
from repro.graphs.coloring_heuristics import greedy_coloring
from repro.graphs.generators import (
    complete_multipartite,
    crown_graph,
    kneser_graph,
    wheel_graph,
)

#: The paper's 0-1 ILP flow on the whole graph (no kernelization).
ILP = Pipeline().reduce(False)


def test_wheel_sizes():
    w5 = wheel_graph(5)
    assert w5.num_vertices == 6
    assert w5.num_edges == 10
    with pytest.raises(ValueError):
        wheel_graph(2)


@pytest.mark.parametrize("spokes,chi", [(3, 4), (4, 3), (5, 4), (6, 3), (7, 4)])
def test_wheel_chromatic(spokes, chi):
    g = wheel_graph(spokes)
    assert exact_chromatic_number(g).chromatic_number == chi
    result = (ILP.symmetry(sbp_kind="nu").solve(backend="pbs2", time_limit=60)
              .run(BudgetedOptimize(g, chi + 1)))
    assert result.num_colors == chi


def test_crown_is_bipartite_but_greedy_bad():
    g = crown_graph(4)
    assert exact_chromatic_number(g).chromatic_number == 2
    # Interleaved order (0, n, 1, n+1, ...) makes greedy use n colors.
    order = [v for i in range(4) for v in (i, 4 + i)]
    _, greedy_colors = greedy_coloring(g, order)
    assert greedy_colors == 4
    with pytest.raises(ValueError):
        crown_graph(1)


def test_kneser_petersen():
    petersen = kneser_graph(5, 2)
    assert petersen.num_vertices == 10
    assert petersen.num_edges == 15
    assert exact_chromatic_number(petersen).chromatic_number == 3  # 5-4+2


@pytest.mark.parametrize("n,k,chi", [(4, 2, 2), (5, 2, 3), (6, 2, 4)])
def test_kneser_lovasz_bound(n, k, chi):
    g = kneser_graph(n, k)
    assert exact_chromatic_number(g).chromatic_number == chi
    assert coudert_chromatic_number(g).chromatic_number == chi
    assert necsp_chromatic_number(g).chromatic_number == chi


def test_kneser_validation():
    with pytest.raises(ValueError):
        kneser_graph(3, 2)


@pytest.mark.parametrize("sizes,chi", [([2, 2], 2), ([1, 2, 3], 3), ([2, 2, 2, 2], 4)])
def test_multipartite_chromatic(sizes, chi):
    g = complete_multipartite(sizes)
    assert exact_chromatic_number(g).chromatic_number == chi
    result = (ILP.symmetry(sbp_kind="nu+sc").solve(backend="pbs2", time_limit=60)
              .run(BudgetedOptimize(g, chi + 1)))
    assert result.num_colors == chi


def test_multipartite_validation():
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])


def test_kneser_62_through_ilp_pipeline():
    # chi(K(6,2)) = 4; a nontrivial instance for the full SBP pipeline.
    g = kneser_graph(6, 2)
    result = (ILP.symmetry(sbp_kind="nu+sc", instance_dependent=True)
              .solve(backend="pbs2", time_limit=120)
              .run(BudgetedOptimize(g, 6)))
    assert result.status == "OPTIMAL"
    assert result.num_colors == 4
