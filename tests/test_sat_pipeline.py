"""Pure-CNF coloring pipeline tests."""

import hashlib

import pytest

from repro.coloring.sat_pipeline import (
    chromatic_number_sat,
    encode_k_coloring_cnf,
    encode_k_coloring_growable,
    encode_k_coloring_incremental,
    sat_k_colorable,
)
from repro.experiments.instances import get_instance
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.graphs.graph import Graph

K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_encoding_is_pure_cnf():
    formula, x = encode_k_coloring_cnf(mycielski_graph(3), 4)
    assert not formula.pb_constraints
    assert formula.objective is None
    assert len(x) == 11 * 4


# sha256 prefix of every CNF encoding of a registry graph for K 1-9:
# encode_k_coloring_cnf and _incremental under each CNF SBP kind,
# encode_k_coloring_growable under each growth-safe one.  Each entry
# digests num_vars, the clause literal lists in order, and the returned
# variable maps.
ENCODING_PINS = {
    "myciel3": "33cc416f517f6797",
    "myciel4": "4bd4c0c21ff8d75f",
    "myciel5": "d41f23eccaa41928",
    "queen5_5": "3f9fa99b3dbb4bbd",
    "queen6_6": "4fcab6c3da3e3169",
    "huck": "4e463a7acabc61fc",
    "jean": "a7c4a12f14cfbb18",
}


def _encoding_digest(graph):
    digest = hashlib.sha256()

    def add(name, k, sbp, formula, *maps):
        clauses = formula.clauses
        maps = [sorted(m.items()) if isinstance(m, dict) else m for m in maps]
        digest.update(repr((name, k, sbp, formula.num_vars, clauses, *maps)).encode())

    for k in range(1, 10):
        for sbp in ("none", "nu", "sc", "nu+sc"):
            add("cnf", k, sbp, *encode_k_coloring_cnf(graph, k, sbp_kind=sbp))
            add("incremental", k, sbp,
                *encode_k_coloring_incremental(graph, k, sbp_kind=sbp))
        for sbp in ("none", "sc"):
            add("growable", k, sbp,
                *encode_k_coloring_growable(graph, k, sbp_kind=sbp))
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(ENCODING_PINS))
def test_cnf_encodings_are_pinned(name):
    """Every CNF K-coloring formula stays byte-identical: the encoders
    share one layout, and a change to it must not change a formula."""
    assert _encoding_digest(get_instance(name).graph()) == ENCODING_PINS[name]


def test_k_colorable_decision():
    status, coloring, _, _ = sat_k_colorable(K4, 4)
    assert status == "SAT"
    assert K4.is_proper_coloring(coloring)
    status, coloring, _, _ = sat_k_colorable(K4, 3)
    assert status == "UNSAT" and coloring is None
    # Without preprocessing one solver answers, and reports its search.
    status, _, stats, solvers = sat_k_colorable(K4, 4, preprocess=False)
    assert status == "SAT" and solvers == 1 and stats.decisions > 0


def test_zero_colors():
    status, _, _, solvers = sat_k_colorable(K4, 0)
    assert status == "UNSAT" and solvers == 0
    status, coloring, _, _ = sat_k_colorable(Graph(0), 0)
    assert status == "SAT" and coloring == {}


@pytest.mark.parametrize("strategy", ["linear", "binary"])
def test_chromatic_number_myciel3(strategy):
    result = chromatic_number_sat(
        mycielski_graph(3), strategy=strategy, time_limit=60
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
    assert len(result.k_queries) >= 1
