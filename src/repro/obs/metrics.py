"""Metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-style naming (docs/observability.md): ``*_total`` for
monotonic counters, ``*_seconds`` for wall-clock measurements, labels
flattened into the key as ``name{a="x",b="y"}`` with label names
sorted.  Histograms use *fixed* bucket boundaries so two runs that
observe the same values produce byte-identical snapshots — the batch
runner relies on this to keep ``--jobs 1`` and ``--jobs 4`` records
comparable.

Determinism contract: any metric whose name ends in ``_seconds``
carries wall-clock time, and any ending in ``_cache_total`` counts
shared-cache hits/misses (which depend on pool scheduling); both are
excluded from ``snapshot(deterministic_only=True)``.  Everything else
must be a pure function of the work performed.  The registry is thread-safe
and ambient: callers reach
it through :func:`get_registry`, and :func:`scoped_registry` pushes a
fresh one for the duration of a batch attempt.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

# Default boundaries for count-valued histograms (conflicts per query,
# components per kernel, ...): roughly logarithmic, fixed forever so
# snapshots stay comparable across runs and releases.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000,
    2500, 5000, 10000, 25000, 50000, 100000,
)

# Boundaries for ``*_seconds`` histograms (p50/p99 solve latency for
# the future service endpoint).
TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Flatten ``name`` + labels into the canonical snapshot key."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _base_name(key: str) -> str:
    """The metric name with any label block stripped."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


class Histogram:
    """A fixed-boundary histogram: cumulative-style export, exact count/sum."""

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        """Count ``value`` into its bucket and the running sum."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def as_json(self) -> Dict[str, Any]:
        """JSON-ready dict: per-bucket counts, total count, sum."""
        buckets: Dict[str, int] = {}
        for bound, n in zip(self.bounds, self.counts):
            buckets[f"{bound:g}"] = n
        buckets["+Inf"] = self.counts[-1]
        total = self.sum
        return {"buckets": buckets, "count": self.count,
                "sum": int(total) if total == int(total) else total}


def quantile_from_buckets(hist: Mapping[str, Any], q: float) -> Optional[float]:
    """Estimate the q-quantile (0..1) from an exported histogram dict.

    Returns the upper bound of the bucket containing the quantile rank
    (the usual Prometheus-style estimate), or None for an empty
    histogram.  The ``+Inf`` bucket reports the largest finite bound.
    """
    count = int(hist.get("count", 0))
    if count <= 0:
        return None
    rank = q * count
    seen = 0.0
    finite: List[Tuple[str, int]] = [
        (bound, n) for bound, n in hist["buckets"].items() if bound != "+Inf"
    ]
    for bound, n in finite:
        seen += n
        if seen >= rank:
            return float(bound)
    return float(finite[-1][0]) if finite else None


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms with sorted-JSON export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1, **labels: object) -> None:
        """Add ``amount`` to a monotonic counter (create at 0)."""
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge to its current value."""
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_BUCKETS,
                **labels: object) -> None:
        """Record one observation into a fixed-boundary histogram."""
        key = metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(buckets)
            hist.observe(value)

    def observe_seconds(self, name: str, value: float,
                        **labels: object) -> None:
        """Shorthand: a wall-clock observation on the TIME_BUCKETS scale."""
        self.observe(name, value, buckets=TIME_BUCKETS, **labels)

    def snapshot(self, deterministic_only: bool = False) -> Dict[str, Any]:
        """Export the registry as a recursively sorted plain dict.

        With ``deterministic_only`` every metric whose base name ends
        in ``_seconds`` (wall clock) or ``_cache_total`` (shared-cache
        hit/miss, a function of pool scheduling) is dropped: what
        remains must be identical for identical work, regardless of
        machine or parallelism.
        """
        def keep(key: str) -> bool:
            if not deterministic_only:
                return True
            base = _base_name(key)
            return not base.endswith(("_seconds", "_cache_total"))

        with self._lock:
            counters = {k: self._counters[k]
                        for k in sorted(self._counters) if keep(k)}
            gauges = {k: self._gauges[k]
                      for k in sorted(self._gauges) if keep(k)}
            histograms = {k: self._histograms[k].as_json()
                          for k in sorted(self._histograms) if keep(k)}
        out: Dict[str, Any] = {}
        if counters:
            out["counters"] = counters
        if gauges:
            out["gauges"] = gauges
        if histograms:
            out["histograms"] = histograms
        return out

    def to_json(self, deterministic_only: bool = False) -> str:
        """The snapshot as canonical sorted JSON text."""
        return json.dumps(self.snapshot(deterministic_only=deterministic_only),
                          sort_keys=True, indent=2)

    def clear(self) -> None:
        """Drop every recorded series (test isolation helper)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# The ambient registry stack.  The base registry always exists, so
# instrumented code records unconditionally; a batch attempt pushes a
# fresh registry to keep its snapshot attempt-local (and byte-stable
# across --jobs levels).
_REGISTRIES: List[MetricsRegistry] = [MetricsRegistry()]


def get_registry() -> MetricsRegistry:
    """The innermost ambient registry (always present)."""
    return _REGISTRIES[-1]


@contextmanager
def scoped_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Push a fresh (or given) registry as ambient for the block."""
    reg = registry if registry is not None else MetricsRegistry()
    _REGISTRIES.append(reg)
    try:
        yield reg
    finally:
        _REGISTRIES.pop()
