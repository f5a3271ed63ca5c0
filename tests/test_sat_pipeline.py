"""Pure-CNF coloring pipeline tests."""

import pytest

from repro.coloring.sat_pipeline import (
    chromatic_number_sat,
    encode_k_coloring_cnf,
    sat_k_colorable,
)
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.graphs.graph import Graph

K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_encoding_is_pure_cnf():
    formula, x = encode_k_coloring_cnf(mycielski_graph(3), 4)
    assert not formula.pb_constraints
    assert formula.objective is None
    assert len(x) == 11 * 4


def test_k_colorable_decision():
    status, coloring = sat_k_colorable(K4, 4)
    assert status == "SAT"
    assert K4.is_proper_coloring(coloring)
    status, coloring = sat_k_colorable(K4, 3)
    assert status == "UNSAT" and coloring is None


def test_zero_colors():
    status, _ = sat_k_colorable(K4, 0)
    assert status == "UNSAT"
    status, coloring = sat_k_colorable(Graph(0), 0)
    assert status == "SAT" and coloring == {}


@pytest.mark.parametrize("strategy", ["linear", "binary"])
@pytest.mark.parametrize("amo", ["pairwise", "sequential"])
def test_chromatic_number_myciel3(strategy, amo):
    result = chromatic_number_sat(
        mycielski_graph(3), strategy=strategy, amo_encoding=amo, time_limit=60
    )
    assert result.status == "OPTIMAL"
    assert result.chromatic_number == 4
    assert mycielski_graph(3).is_proper_coloring(result.coloring)


@pytest.mark.parametrize("sbp", ["none", "nu", "sc", "nu+sc"])
def test_cnf_sbps_preserve_answer(sbp):
    result = chromatic_number_sat(
        queens_graph(4, 4), strategy="linear", sbp_kind=sbp, time_limit=60
    )
    assert result.status == "OPTIMAL"
    assert result.chromatic_number == 5


def test_unsupported_sbp_rejected():
    with pytest.raises(ValueError):
        encode_k_coloring_cnf(K4, 3, sbp_kind="ca")
    with pytest.raises(ValueError):
        encode_k_coloring_cnf(K4, 3, amo_encoding="bdd")
    with pytest.raises(ValueError):
        chromatic_number_sat(K4, strategy="ternary")


def test_empty_graph():
    result = chromatic_number_sat(Graph(0))
    assert result.chromatic_number == 0 and result.status == "OPTIMAL"


def test_sat_pipeline_agrees_with_ilp_pipeline():
    from repro.api import BudgetedOptimize, Pipeline

    g = queens_graph(4, 4)
    sat_result = chromatic_number_sat(g, sbp_kind="nu", time_limit=60)
    ilp_result = (Pipeline().reduce(False).symmetry(sbp_kind="nu")
                  .solve(backend="pbs2", time_limit=60)
                  .run(BudgetedOptimize(g, 6)))
    assert sat_result.chromatic_number == ilp_result.num_colors == 5


def test_sat_calls_counted():
    result = chromatic_number_sat(mycielski_graph(3), time_limit=60)
    assert result.sat_calls >= 1
