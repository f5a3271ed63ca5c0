"""The :class:`Deadline` budget object — all deadline arithmetic in one
place.

A :class:`Deadline` freezes an *absolute* expiry instant on the
monotonic clock at construction; every consumer asks ``remaining()`` /
``expired()`` instead of re-deriving ``time_limit - (now - start)`` by
hand.  That hand-rolled arithmetic is exactly what the static checker's
RPR007 rule forbids outside this package: the three copies of it that
used to live in ``pb/optimizer``, ``ilp/branch_and_bound`` and
``batch/runner`` each clamped, rounded and compared slightly
differently.

Deadlines compose downward: :meth:`child` carves a sub-budget that can
never outlive its parent.

The module-level clock is a seam (:func:`set_clock`), which is how the
fault harness injects clock skew deterministically in tests without
sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

Clock = Callable[[], float]

_default_clock: Clock = time.monotonic
_clock: Clock = time.monotonic


def _now() -> float:
    return _clock()


def set_clock(clock: Clock) -> Clock:
    """Install a replacement monotonic clock; returns the previous one.

    The seam exists for the fault-injection harness (clock skew) and
    for deterministic tests; production code never calls it.
    """
    global _clock
    previous = _clock
    _clock = clock
    return previous


def reset_clock() -> None:
    """Restore the real monotonic clock."""
    global _clock
    _clock = _default_clock


def current_clock() -> Clock:
    """The clock the seam holds now."""
    return _clock


class Deadline:
    """A monotonic-clock budget: ``None`` expiry means unbounded.

    Instances are immutable; arithmetic helpers return new deadlines.
    A deadline constructed from a non-positive allotment is already
    expired (``remaining() == 0.0``) rather than an error — callers at
    the end of their budget still get a well-formed object they can
    pass down, and the consumer degrades gracefully.
    """

    __slots__ = ("_expiry",)

    def __init__(self, expiry: Optional[float]) -> None:
        self._expiry = expiry

    # ------------------------------------------------------- construction
    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        """A deadline ``seconds`` from now (``None`` = unbounded)."""
        if seconds is None:
            return cls(None)
        return cls(_now() + max(0.0, seconds))

    @classmethod
    def unbounded(cls) -> "Deadline":
        return cls(None)

    # ------------------------------------------------------------ queries
    @property
    def bounded(self) -> bool:
        return self._expiry is not None

    def remaining(self) -> Optional[float]:
        """Seconds left (clamped at 0.0), or ``None`` when unbounded."""
        if self._expiry is None:
            return None
        return max(0.0, self._expiry - _now())

    def expired(self) -> bool:
        return self._expiry is not None and _now() >= self._expiry

    # -------------------------------------------------------- composition
    def child(self, seconds: Optional[float]) -> "Deadline":
        """A sub-deadline at most ``seconds`` away, never past the parent."""
        if seconds is None:
            return Deadline(self._expiry)
        expiry = _now() + max(0.0, seconds)
        if self._expiry is not None:
            expiry = min(expiry, self._expiry)
        return Deadline(expiry)

    def __repr__(self) -> str:
        if self._expiry is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={self.remaining():.3f}s)"
