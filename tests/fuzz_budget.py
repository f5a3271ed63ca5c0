"""The example budget of properties that set their own ``max_examples``.

An explicit ``@settings(max_examples=N)`` overrides the loaded
hypothesis profile, so without help the ``nightly`` profile (see
``conftest.py``) would run such a property no further than ``ci``.
Test modules import this module by name; ``conftest`` is not importable
by name from them, since ``benchmarks/conftest.py`` is a top-level
``conftest`` module too and a whole-repo run loads it last.
"""

from hypothesis import settings


def fuzz_examples(count: int) -> int:
    """``count``, raised to at least the loaded profile's budget.

    Every such count is above the ``ci`` (20) and ``dev`` (10) budgets,
    so they keep it; ``nightly`` raises it to at least 150.
    """
    return max(count, settings().max_examples)
