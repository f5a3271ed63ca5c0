"""Soundness and completeness tests for the NU/CA/LI/SC constructions.

The key property from the paper's Section 3: each construction is
*sound* — it preserves the optimal color count — and they form a
strength hierarchy (LI breaks all color symmetry, NU only null-color
symmetry, SC a few assignments).
"""

import hashlib
import itertools

import pytest
from fuzz_budget import fuzz_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.encoding import encode_coloring
from repro.coloring.mehrotra_trick import build_mt_formula, maximal_independent_sets
from repro.experiments.instances import get_instance
from repro.graphs.graph import Graph
from repro.pb.presets import solve_optimize
from repro.sbp.instance_independent import (
    SBP_KINDS,
    add_cardinality_ordering,
    add_lowest_index_ordering,
    add_null_color_elimination,
    add_selective_coloring,
    apply_sbp,
)


def random_graph(n, edges):
    g = Graph(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def brute_chromatic(graph, max_colors):
    for k in range(1, max_colors + 1):
        for assignment in itertools.product(range(k), repeat=graph.num_vertices):
            if all(assignment[u] != assignment[v] for u, v in graph.edges()):
                return k
    # Not colorable within the budget: report strictly more than the
    # budget so callers' `expected > k` guards actually fire (returning
    # `max_colors` here made K5 at k=4 look 4-colorable and the random
    # property test below flag a correct UNSAT as a failure).
    return max_colors + 1


def optimum(graph, k, kind):
    encoding = apply_sbp(encode_coloring(graph, k), kind)
    result = solve_optimize(encoding.formula, preset="pbs2")
    return result.status, result.best_value


def test_clause_counts():
    g = random_graph(4, [(0, 1), (1, 2)])
    enc = encode_coloring(g, 3)
    base_clauses = len(enc.formula.clauses)
    e = enc.copy()
    assert add_null_color_elimination(e) == 2
    assert len(e.formula.clauses) == base_clauses + 2
    e = enc.copy()
    assert add_cardinality_ordering(e) == 2
    assert len(e.formula.pb_constraints) == 4 + 2  # n exactly-ones + CA
    e = enc.copy()
    added = add_lowest_index_ordering(e)
    assert added > 0
    assert e.formula.num_vars == enc.formula.num_vars + 2 * 4 * 3  # P and V
    e = enc.copy()
    assert add_selective_coloring(e) == 2


def test_sc_pins_max_degree_vertex():
    g = random_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    enc = encode_coloring(g, 3)
    add_selective_coloring(enc)
    units = [c for c in enc.formula.clauses if len(c) == 1]
    assert (enc.x(0, 1),) in units
    # Highest-degree neighbor of vertex 0 is 1 or 2 (degree 2 each).
    assert (enc.x(1, 2),) in units or (enc.x(2, 2),) in units


def test_unknown_kind_rejected():
    g = random_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        apply_sbp(encode_coloring(g, 2), "xyz")


def test_apply_sbp_does_not_mutate_original():
    g = random_graph(3, [(0, 1)])
    enc = encode_coloring(g, 2)
    before = enc.formula.stats()
    apply_sbp(enc, "li")
    assert enc.formula.stats() == before


TRIANGLE_PLUS = random_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # Figure 1


@pytest.mark.parametrize("kind", SBP_KINDS)
def test_figure1_graph_optimum_preserved(kind):
    status, value = optimum(TRIANGLE_PLUS, 4, kind)
    assert status == "OPTIMAL" and value == 3


@pytest.mark.parametrize("kind", SBP_KINDS)
def test_bipartite_optimum_preserved(kind):
    g = random_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    status, value = optimum(g, 4, kind)
    assert status == "OPTIMAL" and value == 2


@pytest.mark.parametrize("kind", SBP_KINDS)
def test_unsat_preserved(kind):
    # K4 cannot be 3-colored under any sound SBP.
    k4 = random_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    status, _ = optimum(k4, 3, kind)
    assert status == "UNSAT"


@settings(max_examples=fuzz_examples(25), deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_all_kinds_preserve_optimum_on_random_graphs(n, data):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if data.draw(st.booleans())
    ]
    g = random_graph(n, edges)
    k = min(n, 4)
    expected = brute_chromatic(g, k)
    if expected > k:
        return
    for kind in SBP_KINDS:
        status, value = optimum(g, k, kind)
        assert status == "OPTIMAL", (kind, edges)
        assert value == expected, (kind, edges, value, expected)


def test_li_breaks_all_color_symmetry():
    """After LI, the formula has no symmetries at all (paper Table 2)."""
    from repro.symmetry.detect import detect_symmetries

    enc = apply_sbp(encode_coloring(TRIANGLE_PLUS, 3), "li")
    report = detect_symmetries(enc.formula)
    assert report.order == 1


def test_nu_leaves_nonnull_color_symmetry():
    from repro.symmetry.detect import detect_symmetries

    enc = apply_sbp(encode_coloring(TRIANGLE_PLUS, 4), "nu")
    report = detect_symmetries(enc.formula)
    assert report.order > 1


# sha256 prefix of every 0-1 ILP encoding of a registry graph for K 1-9
# under each SBP kind: apply_sbp(encode_coloring(G, K), kind).  Each
# entry digests num_vars, the clauses in order, the PB constraints, the
# objective and the x/y variable maps.  Same graphs and K values as
# tests/test_sat_pipeline.py's ENCODING_PINS.
ILP_ENCODING_PINS = {
    "myciel3": "e9d4ce40c11fbea8",
    "myciel4": "dd96d3af7cdb166e",
    "myciel5": "d880af0db0aa04b5",
    "queen5_5": "580ce14386f9cc2c",
    "queen6_6": "99cf9602ed62598d",
    "huck": "8d6a9ece0b08637d",
    "jean": "cc5303fef1ac7a4a",
}
# The same digest of the Mehrotra-Trick covering formula of myciel4
# over all of its maximal independent sets.
MT_FORMULA_PIN = "3e16d6fc5c873864"


def _formula_key(formula):
    pbs = [(p.terms, p.relation, p.bound) for p in formula.pb_constraints]
    return (formula.num_vars, formula.clauses, pbs,
            formula.objective, formula.objective_sense)


def _ilp_encoding_digest(graph):
    digest = hashlib.sha256()
    for k in range(1, 10):
        base = encode_coloring(graph, k)
        for kind in SBP_KINDS:
            enc = apply_sbp(base, kind)
            digest.update(repr((k, kind, _formula_key(enc.formula),
                                sorted(enc.x_var.items()),
                                sorted(enc.y_var.items()))).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(ILP_ENCODING_PINS))
def test_ilp_encodings_are_pinned(name):
    """Every 0-1 ILP K-coloring formula, with each SBP construction,
    stays byte-identical: a change to the encoder or to the variable
    allocation must not change a formula."""
    graph = get_instance(name).graph()
    assert _ilp_encoding_digest(graph) == ILP_ENCODING_PINS[name]


def test_mt_formula_is_pinned():
    graph = get_instance("myciel4").graph()
    formula, var_of_column = build_mt_formula(graph, maximal_independent_sets(graph))
    columns = sorted((var, sorted(col)) for var, col in var_of_column.items())
    key = repr((_formula_key(formula), columns)).encode()
    assert hashlib.sha256(key).hexdigest()[:16] == MT_FORMULA_PIN
