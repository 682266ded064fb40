"""Observability: tracing, metrics, and structured logging.

Three stdlib-only pieces shared by every layer of the stack:

* :mod:`repro.obs.trace` — contextvar-propagated spans with a global
  bounded collector; ``X-Carbon3D-Trace-Id`` correlation from Session
  through HTTP to the engine's stage spans. No-ops when no trace is
  active, so library-only use pays nothing.
* :mod:`repro.obs.metrics` — atomic counters, gauges, and fixed-bucket
  histograms behind a :class:`~repro.obs.metrics.MetricsRegistry` that
  renders Prometheus text exposition (``GET /metrics``) and JSON
  snapshots (``/stats``).
* :mod:`repro.obs.logging` — one-line-per-request JSON logs for
  ``carbon3d serve --log-json``.
"""

from . import logging, metrics, trace  # noqa: F401 (submodule re-exports)
from .logging import JsonRequestLog
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

# NOTE: ``trace`` here is the *submodule* (``repro.obs.trace``); the
# root context manager is re-exported as ``start_trace`` to avoid
# shadowing it. ``span``/``current_trace_id`` keep their names.
from .trace import (  # noqa: E402
    TRACE_HEADER,
    Span,
    TraceCollector,
    active,
    collector,
    current_trace_id,
    render_tree,
    span,
    stage_breakdown,
)
from .trace import trace as start_trace

__all__ = [
    "JsonRequestLog",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TRACE_HEADER",
    "Span",
    "TraceCollector",
    "active",
    "collector",
    "current_trace_id",
    "logging",
    "metrics",
    "render_tree",
    "span",
    "stage_breakdown",
    "start_trace",
    "trace",
]
