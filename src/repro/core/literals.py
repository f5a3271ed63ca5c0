"""Literal conventions shared by every solver and encoder in the library.

A *variable* is a positive integer ``1, 2, 3, ...`` (DIMACS convention).
A *literal* is a non-zero integer: ``v`` is the positive literal of
variable ``v`` and ``-v`` its negation.  Using plain ints keeps formulas
cheap to build, hash and serialize; solvers convert to a dense 0-based
index internally via :func:`lit_index`.
"""

from __future__ import annotations


def var_of(lit: int) -> int:
    """Return the variable underlying ``lit``."""
    return lit if lit > 0 else -lit


def lit_index(lit: int) -> int:
    """Map a literal to a dense 0-based index.

    Variable ``v`` maps its positive literal to ``2*(v-1)`` and its
    negative literal to ``2*(v-1) + 1``, so a solver over ``n`` variables
    can size literal-indexed arrays as ``2*n``.
    """
    return 2 * (lit - 1) if lit > 0 else 2 * (-lit - 1) + 1


def index_lit(index: int) -> int:
    """Inverse of :func:`lit_index`."""
    var = index // 2 + 1
    return var if index % 2 == 0 else -var


def check_literal(lit: int) -> int:
    """Validate that ``lit`` is a legal literal and return it.

    Raises ``ValueError`` for 0 or non-int input; encoders call this at
    API boundaries so malformed constraints fail fast with a clear
    message instead of corrupting a solver's internal arrays.
    """
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise ValueError(f"not a literal: {lit!r} (need a non-zero int)")
    return lit
