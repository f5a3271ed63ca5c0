"""Observability: solver event tracing, metrics, profiling (stdlib only).

Three pieces (docs/observability.md):

* a compact binary event tracer (:mod:`repro.obs.trace`, catalogue in
  :mod:`repro.obs.events`, wire format in docs/TRACE_FORMAT.md) that
  costs the solver hot loop exactly one attribute test when disabled;
* an ambient metrics registry (:mod:`repro.obs.metrics`) of counters,
  gauges and fixed-bucket histograms with deterministic sorted-JSON
  snapshots, wired through the solver, K-search, sessions, pipeline
  stages, the portfolio race and the batch runner;
* a profile CLI (``python -m repro.obs``) rendering per-phase timing
  and conflict-rate reports from a trace.

Quickstart::

    from repro.obs import tracing, get_registry
    with tracing("descent.trace"):
        result = pipeline.run(ChromaticProblem(graph))
    print(get_registry().to_json())
    # then: python -m repro.obs report descent.trace
"""

from .hooks import Tracer, active_tracer, install_tracer, tracing, uninstall_tracer
from .metrics import (
    DEFAULT_BUCKETS,
    TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    quantile_from_buckets,
    scoped_registry,
)
from .report import build_profile, decode_record, render_report
from .trace import (
    MAGIC,
    VERSION,
    TraceError,
    TraceLog,
    TraceRecord,
    TraceWriter,
    decode_uvarint,
    encode_trace,
    encode_uvarint,
    read_trace,
    write_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MAGIC",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "TraceError",
    "TraceLog",
    "TraceRecord",
    "TraceWriter",
    "Tracer",
    "VERSION",
    "active_tracer",
    "build_profile",
    "decode_record",
    "decode_uvarint",
    "encode_trace",
    "encode_uvarint",
    "get_registry",
    "install_tracer",
    "metric_key",
    "quantile_from_buckets",
    "read_trace",
    "render_report",
    "scoped_registry",
    "tracing",
    "uninstall_tracer",
    "write_trace",
]
