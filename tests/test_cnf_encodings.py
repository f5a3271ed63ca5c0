"""The pairwise at-most-one encoding: semantics vs brute force."""

import itertools

from repro.core.cnf_encodings import encode_at_most_one_pairwise
from repro.core.formula import Formula
from repro.sat.cdcl import solve_formula


def _count_models_projected(formula, num_inputs):
    """Project models onto the first ``num_inputs`` variables."""
    seen = set()
    solver_formula = formula.copy()
    for bits in itertools.product([False, True], repeat=num_inputs):
        probe = solver_formula.copy()
        for v, bit in enumerate(bits, start=1):
            probe.add_clause([v if bit else -v])
        if solve_formula(probe).is_sat:
            seen.add(bits)
    return seen


def test_pairwise_amo():
    f = Formula(num_vars=3)
    added = encode_at_most_one_pairwise(f, [1, 2, 3])
    assert added == 3
    models = _count_models_projected(f, 3)
    assert models == {b for b in itertools.product([False, True], repeat=3) if sum(b) <= 1}

