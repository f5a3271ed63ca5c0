"""The K-descent driver's policy, against a scripted oracle.

The solver-backed callers are covered by the differential harnesses
(``tests/test_incremental.py``, ``tests/test_session.py``,
``tests/test_component_pool.py``); here the oracle is a stand-in whose
answers are fixed by a chromatic number, so each rule of the policy
shows in the query trace.
"""

import pytest

from repro.coloring.descent import descend
from repro.obs import scoped_registry
from repro.resilience import Deadline
from repro.sat.result import OPTIMAL, SAT, UNKNOWN, UNSAT

INCUMBENT = {v: v + 1 for v in range(8)}  # an 8-coloring
UNBOUNDED = Deadline.unbounded()


def oracle(chi, core=()):
    """SAT with exactly k colors at k >= chi, else UNSAT with ``core``."""

    def decide(k, deadline):
        if k < chi:
            return UNSAT, None, list(core)
        return SAT, {v: v + 1 for v in range(k)}, []

    return decide


def test_linear_steps_down_until_unsat():
    outcome = descend(oracle(4), INCUMBENT, 2, UNBOUNDED, strategy="linear")
    assert outcome.queries == [(7, SAT), (6, SAT), (5, SAT), (4, SAT), (3, UNSAT)]
    assert outcome.status == OPTIMAL and outcome.lower_bound == 4
    assert len(set(outcome.coloring.values())) == 4


def test_binary_jumps_past_an_unsat_core():
    # UNSAT at 3 with core {5}: every K below 5 is dead, so 4 is skipped.
    outcome = descend(oracle(5, core=[5]), INCUMBENT, 2, UNBOUNDED, strategy="binary")
    assert outcome.queries == [(5, SAT), (3, UNSAT)]
    assert outcome.status == OPTIMAL and outcome.lower_bound == 5


@pytest.mark.parametrize("cap,status,queries", [
    (9, OPTIMAL, [(7, SAT), (6, SAT), (5, SAT), (4, SAT), (3, UNSAT)]),
    (6, OPTIMAL, [(6, SAT), (5, SAT), (4, SAT), (3, UNSAT)]),
    (3, UNSAT, [(3, UNSAT)]),
    (1, UNSAT, []),  # below the lower bound: no query needed
])
def test_cap_is_asked_first_only_when_the_incumbent_exceeds_it(cap, status, queries):
    outcome = descend(oracle(4), INCUMBENT, 2, UNBOUNDED, cap=cap)
    assert outcome.status == status
    assert outcome.queries == queries
    assert (outcome.coloring is None) == (status == UNSAT)


def test_expired_deadline_and_stop_end_the_descent_before_a_query():
    with scoped_registry() as registry:
        expired = descend(oracle(4), INCUMBENT, 2, Deadline.after(0.0), where="session")
    assert (expired.status, expired.queries, expired.lower_bound) == (SAT, [], 2)
    assert expired.coloring is INCUMBENT
    assert registry.snapshot()["counters"] == {'deadline_expired_total{where="session"}': 1}
    # A stop before the cap is settled leaves no coloring within the cap.
    stopped = descend(oracle(4), INCUMBENT, 2, UNBOUNDED, should_stop=lambda: True, cap=6)
    assert (stopped.status, stopped.coloring, stopped.queries) == (UNKNOWN, None, [])
