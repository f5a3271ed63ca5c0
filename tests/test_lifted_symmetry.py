"""The lifted detection route against the formula-graph search.

Given the coloring layout a formula came from, ``detect_symmetries``
lifts the K−1 adjacent color transpositions and Aut(G)'s generators
onto the formula and verifies each one; any failure sends it back to
the formula-graph search.  The property below checks, on random small
graphs, that both routes generate the same group and that every lifted
generator really maps the formula onto itself — checked here clause by
clause, independently of the occurrence index the route uses.  The
pins tie the registry's group orders to |Aut(G)| · K!, and the
fallback tests check that formulas whose symmetry is not Aut(G) × S_K
get exactly the formula-graph search's report.

``make fuzz-smoke`` runs this module; nightly CI explores fresh seeds
(profiles in ``tests/conftest.py``).
"""

import math
from itertools import combinations

import pytest
from hypothesis import assume, example, given, strategies as st

from repro.api import BudgetedOptimize, Pipeline
from repro.coloring.encoding import encode_coloring
from repro.core.literals import index_lit, lit_index
from repro.experiments.instances import get_instance
from repro.graphs.generators import mycielski_graph, queens_graph
from repro.graphs.graph import Graph, disjoint_union
from repro.sat.preprocessing import simplify_formula
from repro.sbp.instance_independent import SBP_KINDS, apply_sbp
from repro.symmetry.automorphism import find_automorphisms
from repro.symmetry.detect import detect_symmetries
from repro.symmetry.formula_graph import formula_perm_is_consistent
from repro.symmetry.group import PermutationGroup
from repro.symmetry.lifted import FormulaIndex


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


@st.composite
def random_graph(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


SMALL_GRAPHS = st.one_of(
    random_graph(),
    st.builds(Graph, st.integers(0, 7)),            # edgeless
    st.builds(complete_graph, st.integers(0, 7)),   # complete
    st.builds(disjoint_union, random_graph(1, 3), random_graph(1, 4)),
)


def image_lit(perm, lit):
    return index_lit(perm(lit_index(lit)))


def assert_maps_formula_onto_itself(formula, perm):
    """Map every clause, PB constraint and objective term through the
    literal permutation and find each image in the formula."""
    assert formula_perm_is_consistent(perm)
    clauses = {frozenset(c) for c in formula.clauses}
    for clause in formula.clauses:
        assert frozenset(image_lit(perm, l) for l in clause) in clauses
    pbs = {(pb.relation, pb.bound, tuple(sorted(pb.terms)))
           for pb in formula.pb_constraints}
    for pb in formula.pb_constraints:
        terms = tuple(sorted((c, image_lit(perm, l)) for c, l in pb.terms))
        assert (pb.relation, pb.bound, terms) in pbs
    objective = formula.objective or ()
    assert (sorted((c, image_lit(perm, l)) for c, l in objective)
            == sorted(objective))


@given(graph=SMALL_GRAPHS, k=st.integers(1, 5), simplified=st.booleans())
@example(graph=Graph(0), k=3, simplified=True)
@example(graph=Graph(5), k=1, simplified=True)
@example(graph=complete_graph(4), k=3, simplified=False)
@example(graph=disjoint_union(complete_graph(2), complete_graph(2)), k=2,
         simplified=True)
def test_lifted_group_equals_the_formula_search_group(graph, k, simplified):
    # The default stage order detects on the simplified formula, the
    # Shatter order on the encoding as built.
    encoding = encode_coloring(graph, k)
    formula = encoding.formula
    if simplified:
        formula, _ = simplify_formula(formula)
        assume(formula is not None)
    lifted = detect_symmetries(formula, coloring=encoding)
    searched = detect_symmetries(formula)
    assert lifted.route == "lifted" and searched.route == "formula"
    assert lifted.order == searched.order
    assert lifted.complete and lifted.graph_vertices == graph.num_vertices
    for perm in lifted.generators:
        assert perm.degree == 2 * formula.num_vars
        assert_maps_formula_onto_itself(formula, perm)


# |Aut(G)| · 6! at K = 6 after simplification, as the formula-graph
# search measured it before the lifted route existed.
FORMULA_SEARCH_ORDERS = {
    "myciel3": 7200, "myciel4": 7200, "myciel5": 7200,
    "queen5_5": 5760, "queen6_6": 5760, "queen7_7": 5760,
    "queen8_12": 2880, "miles250": 737280,
}


@pytest.mark.parametrize("name", sorted(FORMULA_SEARCH_ORDERS))
def test_registry_lifted_orders(name):
    graph = get_instance(name).graph()
    encoding = encode_coloring(graph, 6)
    formula, _ = simplify_formula(encoding.formula)
    report = detect_symmetries(formula, coloring=encoding)
    aut = find_automorphisms(graph)
    aut_order = PermutationGroup(aut.generators, degree=graph.num_vertices).order()
    assert report.route == "lifted" and report.complete
    assert report.num_generators == 5 + len(aut.generators)
    assert report.nodes_explored == aut.nodes_explored
    assert report.graph_vertices == graph.num_vertices
    assert report.order == aut_order * math.factorial(6)
    assert report.order == FORMULA_SEARCH_ORDERS[name]
    if name in ("myciel3", "queen5_5"):
        assert detect_symmetries(formula).order == report.order


@pytest.mark.parametrize("name", ["myciel3", "queen5_5"])
@pytest.mark.parametrize("kind", [k for k in SBP_KINDS if k != "none"])
def test_sbp_kinds_fall_back_to_the_formula_search(name, kind):
    encoding = apply_sbp(encode_coloring(get_instance(name).graph(), 6), kind)
    with_coloring = detect_symmetries(
        encoding.formula, compute_order=False, coloring=encoding)
    without = detect_symmetries(encoding.formula, compute_order=False)
    assert with_coloring.route == without.route == "formula"
    assert with_coloring.generators == without.generators
    assert with_coloring.nodes_explored == without.nodes_explored
    assert with_coloring.complete == without.complete
    assert with_coloring.graph_vertices == without.graph_vertices


def test_a_missing_edge_clause_falls_back_to_the_formula_search():
    graph = mycielski_graph(3)
    encoding = encode_coloring(graph, 4)
    a, b = next(iter(graph.edges()))
    encoding.formula.clauses.remove(
        tuple(sorted([-encoding.x(a, 1), -encoding.x(b, 1)], key=abs)))
    with_coloring = detect_symmetries(encoding.formula, coloring=encoding)
    without = detect_symmetries(encoding.formula)
    assert with_coloring.route == "formula"
    assert with_coloring.generators == without.generators
    assert with_coloring.order == without.order
    # Colors 2..4 still permute freely; color 1 is pinned.
    assert with_coloring.order < 10 * math.factorial(4)


def test_non_symmetries_fail_verification():
    graph = queens_graph(5, 5)
    encoding = encode_coloring(graph, 6)
    index = FormulaIndex(encoding.formula)
    identity = list(range(encoding.formula.num_vars + 1))
    assert index.is_symmetry(identity)
    # Corner and center have different degrees: not an automorphism.
    swap = list(identity)
    for k in range(1, 7):
        corner, center = encoding.x(0, k), encoding.x(12, k)
        swap[corner], swap[center] = center, corner
    assert not index.is_symmetry(swap)
    # Swapping two colors' usage variables without their x columns.
    swap = list(identity)
    swap[encoding.y(1)], swap[encoding.y(2)] = encoding.y(2), encoding.y(1)
    assert not index.is_symmetry(swap)


@pytest.mark.parametrize("kind,route", [("none", "lifted"), ("nu+sc", "formula")])
def test_the_detect_stage_reports_its_route(kind, route):
    result = (
        Pipeline()
        .reduce(False)
        .symmetry(sbp_kind=kind, instance_dependent=True)
        .solve(backend="pb-pbs2", time_limit=60)
        .run(BudgetedOptimize(mycielski_graph(3), 6))
    )
    assert result.status == "OPTIMAL" and result.num_colors == 4
    detect = next(stage for stage in result.stages if stage.name == "detect")
    assert detect.details == {
        "generators": result.detection.num_generators,
        "route": route,
        "complete": True,
    }
    assert result.detection.route == route
