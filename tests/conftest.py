"""Shared test configuration: seeded hypothesis profiles.

The differential property harnesses — disconnected graphs across
backends (``tests/test_component_pool.py``) and lifted vs formula-graph
symmetry detection (``tests/test_lifted_symmetry.py``) — run under one
of three registered profiles, selected by the ``HYPOTHESIS_PROFILE``
environment variable:

* ``ci`` (the default) — derandomized: the same seed every run, so the
  tier-1 suite and the PR ``fuzz-smoke`` job are deterministic;
* ``nightly`` — fresh random seeds and a larger example budget, for the
  scheduled CI run that explores new inputs every night;
* ``dev`` — derandomized but small, for quick local iteration.

A property that sets its own ``max_examples`` passes its count through
``fuzz_budget.fuzz_examples``, so ``nightly`` raises it to at least the
profile's budget while ``ci`` and ``dev`` keep it.

Solver-backed properties are orders of magnitude slower than the pure
functions hypothesis expects, so deadlines are disabled and the
too-slow health check suppressed in every profile.
"""

import os

from hypothesis import HealthCheck, settings

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

settings.register_profile("ci", max_examples=20, derandomize=True, **_COMMON)
settings.register_profile("nightly", max_examples=150, derandomize=False, **_COMMON)
settings.register_profile("dev", max_examples=10, derandomize=True, **_COMMON)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
