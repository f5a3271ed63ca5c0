"""Permutation group (Schreier-Sims) tests."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symmetry.group import PermutationGroup, orbit_of, orbits
from repro.symmetry.permutation import Permutation


def adjacent_transpositions(n):
    return [Permutation.from_cycles(n, [(i, i + 1)]) for i in range(n - 1)]


def test_symmetric_group_orders():
    for n in range(2, 8):
        assert PermutationGroup(adjacent_transpositions(n)).order() == math.factorial(n)


def test_trivial_group():
    g = PermutationGroup([], degree=5)
    assert g.order() == 1
    assert g.contains(Permutation.identity(5))
    assert not g.contains(Permutation.from_cycles(5, [(0, 1)]))


def test_cyclic_group():
    p = Permutation.from_cycles(7, [tuple(range(7))])
    g = PermutationGroup([p])
    assert g.order() == 7
    assert g.contains(p.power(3))


def test_dihedral_group():
    rot = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    ref = Permutation.from_cycles(5, [(1, 4), (2, 3)])
    assert PermutationGroup([rot, ref]).order() == 10


def test_klein_four():
    a = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    b = Permutation.from_cycles(4, [(0, 2), (1, 3)])
    g = PermutationGroup([a, b])
    assert g.order() == 4
    assert g.contains(a * b)
    assert not g.contains(Permutation.from_cycles(4, [(0, 1)]))


def test_direct_product():
    gens = adjacent_transpositions(4)
    shifted = [
        Permutation.from_cycles(8, [(4 + i, 5 + i)]) for i in range(3)
    ]
    lifted = [Permutation(list(g.image) + [4, 5, 6, 7]) for g in gens]
    assert PermutationGroup(lifted + shifted).order() == 24 * 24


def test_membership_by_sifting():
    g = PermutationGroup(adjacent_transpositions(5))
    assert g.contains(Permutation([4, 3, 2, 1, 0]))
    # Even permutation group: alternating A_4 from 3-cycles.
    a4 = PermutationGroup(
        [Permutation.from_cycles(4, [(0, 1, 2)]), Permutation.from_cycles(4, [(1, 2, 3)])]
    )
    assert a4.order() == 12
    assert not a4.contains(Permutation.from_cycles(4, [(0, 1)]))  # odd


def test_orbits():
    gens = [Permutation.from_cycles(5, [(0, 1)]), Permutation.from_cycles(5, [(2, 3)])]
    assert orbits(gens, 5) == [[0, 1], [2, 3], [4]]
    assert orbit_of(0, gens) == {0, 1}


def test_large_degree_small_group():
    # S_6 embedded in degree 500: order must ignore fixed points.
    gens = [Permutation.from_cycles(500, [(i, i + 1)]) for i in range(5)]
    assert PermutationGroup(gens).order() == 720


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.data())
def test_order_matches_closure(n, data):
    gens = [
        Permutation(data.draw(st.permutations(range(n))))
        for _ in range(data.draw(st.integers(min_value=1, max_value=2)))
    ]
    gens = [g for g in gens if not g.is_identity]
    group = PermutationGroup(gens, degree=n)
    elements = {Permutation.identity(n)}
    frontier = list(gens)
    while frontier:
        e = frontier.pop()
        for h in list(elements):
            for prod in (e * h, h * e):
                if prod not in elements:
                    elements.add(prod)
                    frontier.append(prod)
    assert group.order() == len(elements)
    for e in list(elements)[:8]:
        assert group.contains(e)
