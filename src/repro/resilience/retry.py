"""Bounded retries with deterministic backoff and failure classification.

One :class:`RetryPolicy` object answers the three questions the batch
runner used to answer with ad-hoc counters and tuple membership tests:

* *retry?* — only **transient** failures (a worker that died without
  reporting: OOM kill, solver crash, broken pipe) are worth re-running
  on the same backend, up to ``max_retries`` times;
* *promote?* — outcomes that exhausted their attempt (timeout,
  engine gave up, deterministic error, death past the retry budget)
  advance the task's backend-fallback chain;
* *wait how long?* — exponential backoff from ``base_delay`` with a
  multiplicative cap and **deterministic** jitter: the jitter is drawn
  from a ``random.Random`` seeded by ``(seed, attempt)``, so two runs
  of the same batch produce the same delay schedule — the chaos suite
  asserts this byte-for-byte.

The default ``base_delay`` is 0 (immediate retry), matching the
historical runner behaviour; deployments that talk to shared
infrastructure raise it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

#: Attempt outcomes worth retrying on the *same* backend: the failure
#: was environmental, not deterministic.
TRANSIENT_OUTCOMES = frozenset({"died"})

#: Outcomes that advance the backend-fallback chain once retries are
#: exhausted (a deterministic "error" will not go away on retry, so it
#: promotes immediately; "ok" never promotes).
PROMOTABLE_OUTCOMES = frozenset({"timeout", "inconclusive", "error", "died"})

@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget + backoff schedule + failure classification.

    ``delay(attempt)`` for attempt 1, 2, ... is
    ``min(base_delay * backoff**(attempt-1), max_delay)`` scaled by a
    deterministic jitter in ``[1 - jitter, 1 + jitter]``.
    """

    max_retries: int = 1
    base_delay: float = 0.0
    backoff: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    # ------------------------------------------------------ classification
    def classify(self, outcome: str) -> str:
        """``"transient"`` (retryable) or ``"fatal"`` (deterministic)."""
        return "transient" if outcome in TRANSIENT_OUTCOMES else "fatal"

    def should_retry(self, outcome: str, retries_used: int) -> bool:
        """Retry the same backend?  Transient failures only, bounded."""
        return (
            self.classify(outcome) == "transient"
            and retries_used < self.max_retries
        )

    def should_promote(self, outcome: str) -> bool:
        """Advance the fallback chain (given retries are exhausted)?"""
        return outcome in PROMOTABLE_OUTCOMES

    # ------------------------------------------------------------ schedule
    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based).

        Deterministic: the jitter RNG is seeded per ``(seed, attempt)``,
        so the full schedule is a pure function of the policy.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        raw = min(
            self.base_delay * self.backoff ** (attempt - 1), self.max_delay
        )
        if raw <= 0.0 or self.jitter == 0.0:
            return raw
        rng = random.Random(f"{self.seed}:{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def schedule(self) -> List[float]:
        """The whole backoff schedule, one delay per permitted retry."""
        return [self.delay(attempt) for attempt in range(1, self.max_retries + 1)]
