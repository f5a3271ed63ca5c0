"""Permutation groups: orbits, stabilizer chains and group order.

The paper's Table 2 reports ``#S`` — the *order* of the symmetry group
of each formula — which GAP computed from Nauty's generators.  We
reproduce that with a deterministic Schreier–Sims implementation: a
base and strong generating set (BSGS) whose transversal sizes multiply
to the group order.

The construction below is the fixpoint variant: per-level strong
generator sets ``S_i`` (generators fixing the first ``i`` base points)
are grown with stripped Schreier generators until every Schreier
generator sifts to the identity.  By Schreier's lemma the chain is then
complete and ``|G| = prod |orbit_i|``.  It favours obvious correctness
over asymptotics, which is the right trade at the degrees the
reproduction needs (thousands of points, modest chains).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .permutation import Permutation


def orbit_of(point: int, generators: Sequence[Permutation]) -> Set[int]:
    """Orbit of a point under the group generated by ``generators``."""
    orbit = {point}
    frontier = [point]
    while frontier:
        current = frontier.pop()
        for gen in generators:
            image = gen(current)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def orbits(generators: Sequence[Permutation], degree: int) -> List[List[int]]:
    """All orbits of ``0..degree-1``, each sorted, ordered by minimum."""
    seen = [False] * degree
    out: List[List[int]] = []
    for start in range(degree):
        if seen[start]:
            continue
        orbit = sorted(orbit_of(start, generators))
        for p in orbit:
            seen[p] = True
        out.append(orbit)
    return out


class PermutationGroup:
    """The group generated by a set of permutations (BSGS via Schreier–Sims).

    >>> g = PermutationGroup([Permutation.from_cycles(3, [(0, 1)]),
    ...                       Permutation.from_cycles(3, [(1, 2)])])
    >>> g.order()
    6
    """

    def __init__(self, generators: Iterable[Permutation], degree: Optional[int] = None):
        gens = [g for g in generators if not g.is_identity]
        if degree is None:
            if not gens:
                raise ValueError("degree required for the trivial group")
            degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a degree")
        self.degree = degree
        self.generators = gens
        self._base: Optional[List[int]] = None
        self._transversals: Optional[List[Dict[int, Permutation]]] = None
        self._strong: Optional[List[List[Permutation]]] = None

    # --------------------------------------------------------------- BSGS
    def _build(self) -> None:
        if self._base is not None:
            return
        base: List[int] = []
        strong: List[List[Permutation]] = []  # strong[i] = S_i
        transversals: List[Dict[int, Permutation]] = []
        identity = Permutation.identity(self.degree)

        def ensure_base_for(gen: Permutation) -> None:
            """Extend the base so that no strong generator fixes all of it."""
            if all(gen(b) == b for b in base):
                base.append(gen.support()[0])
                strong.append([])
                transversals.append({})

        def recompute_transversal(i: int) -> None:
            tr: Dict[int, Permutation] = {base[i]: identity}
            frontier = [base[i]]
            while frontier:
                point = frontier.pop()
                rep = tr[point]
                for gen in strong[i]:
                    image = gen(point)
                    if image not in tr:
                        tr[image] = gen * rep
                        frontier.append(image)
            transversals[i] = tr

        def strip(element: Permutation, start: int) -> Tuple[Permutation, int]:
            current = element
            for i in range(start, len(base)):
                image = current(base[i])
                rep = transversals[i].get(image)
                if rep is None:
                    return current, i
                current = rep.inverse() * current
            return current, len(base)

        def add_strong(gen: Permutation) -> None:
            """Register a strong generator at every level whose base prefix
            it fixes (S_i membership: gen fixes base[0..i-1])."""
            ensure_base_for(gen)
            strong[0].append(gen)
            for i in range(1, len(base)):
                if gen(base[i - 1]) != base[i - 1]:
                    break
                strong[i].append(gen)

        for gen in self.generators:
            add_strong(gen)

        # Fixpoint: keep recomputing orbits and sifting Schreier generators
        # until everything strips to the identity.  New strong generators
        # are batched per sweep — mutating the per-level lists while
        # iterating them would chase freshly-added elements forever.
        changed = True
        while changed:
            changed = False
            for i in range(len(base)):
                recompute_transversal(i)
            for i in range(len(base)):
                tr = transversals[i]
                level_gens = list(strong[i])
                new_gens: List[Permutation] = []
                for point, rep in list(tr.items()):
                    for gen in level_gens:
                        image_rep = tr.get(gen(point))
                        if image_rep is None:
                            # Cannot happen: tr is the full orbit closure
                            # of level_gens; guard for safety.
                            changed = True
                            continue
                        schreier = image_rep.inverse() * (gen * rep)
                        if schreier.is_identity:
                            continue
                        residue, _ = strip(schreier, i + 1)
                        if residue.is_identity:
                            continue
                        new_gens.append(residue)
                        if len(new_gens) >= 8:
                            break
                    if len(new_gens) >= 8:
                        break
                if new_gens:
                    for residue in new_gens:
                        add_strong(residue)
                    changed = True
                    break

        self._base = base
        self._strong = strong
        self._transversals = transversals

    # ------------------------------------------------------------- queries
    def order(self) -> int:
        """Exact group order (product of transversal sizes)."""
        if not self.generators:
            return 1
        self._build()
        result = 1
        for tr in self._transversals or []:
            result *= len(tr)
        return result

    def contains(self, element: Permutation) -> bool:
        """Membership test by sifting through the stabilizer chain."""
        if element.degree != self.degree:
            return False
        if element.is_identity:
            return True
        if not self.generators:
            return False
        self._build()
        current = element
        for i, base_point in enumerate(self._base or []):
            image = current(base_point)
            rep = (self._transversals or [])[i].get(image)
            if rep is None:
                return False
            current = rep.inverse() * current
        return current.is_identity

    def orbits(self) -> List[List[int]]:
        """Orbits of the natural action."""
        return orbits(self.generators, self.degree)

    def num_generators(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, generators={len(self.generators)})"
