"""Lightweight spans: request correlation from Session to engine stage.

A *trace* is a tree of timed spans sharing one ``trace_id``. The
:func:`trace` context manager opens (or adopts) a root span and makes it
current via a :mod:`contextvars` variable; :func:`span` opens a child of
whatever is current. Crucially, **when no trace is active, ``span()`` is
a no-op** — a single contextvar read and no allocation — so instrumented
hot paths (engine stages, memo lookups) cost nothing for plain library
use and benches.

The trace id travels:

* Session → ServiceClient → server as the ``X-Carbon3D-Trace-Id``
  header (:data:`TRACE_HEADER`), echoed back in response envelopes and
  NDJSON stream lines;
* request handler → engine stages implicitly: the engine evaluates on
  the caller's thread, so its stage spans open under the current span.

Finished spans are recorded in a process-global, bounded
:class:`TraceCollector`; :func:`stage_breakdown` aggregates per-stage
self-times for ``StudyHandle.timing()`` and :func:`render_tree` prints
the ``carbon3d trace`` span tree.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time

TRACE_HEADER = "X-Carbon3D-Trace-Id"

_current: "contextvars.ContextVar[Span | None]" = contextvars.ContextVar(
    "carbon3d_span", default=None
)


def _new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


class Span:
    """One timed operation in a trace tree."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "start_s",
        "duration_s",
        "_t0",
    )

    def __init__(
        self,
        trace_id: str,
        name: str,
        parent_id: "str | None" = None,
        attrs: "dict | None" = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs or {}
        self.start_s = time.time()
        self.duration_s = 0.0
        self._t0 = time.perf_counter()

    def finish(self) -> None:
        self.duration_s = time.perf_counter() - self._t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id[:8]}, "
            f"{self.duration_s * 1e3:.3f}ms)"
        )


class TraceCollector:
    """Bounded in-memory store of finished spans, keyed by trace id."""

    def __init__(self, max_traces: int = 64) -> None:
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: "dict[str, list[Span]]" = {}

    def record(self, span: Span) -> None:
        with self._lock:
            spans = self._traces.get(span.trace_id)
            if spans is None:
                while len(self._traces) >= self.max_traces:
                    # dict preserves insertion order: evict the oldest.
                    oldest = next(iter(self._traces))
                    del self._traces[oldest]
                spans = []
                self._traces[span.trace_id] = spans
            spans.append(span)

    def spans(self, trace_id: str) -> "list[Span]":
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def trace_ids(self) -> "list[str]":
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


collector = TraceCollector()


class _SpanContext:
    """Context manager entering ``span`` as the current span."""

    __slots__ = ("span", "_token")

    def __init__(self, span: Span) -> None:
        self.span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _current.set(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.finish()
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        _current.reset(self._token)
        collector.record(self.span)
        return False


class _NullSpan:
    """What ``span()`` returns when no trace is active: nothing, cheaply."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullSpan()


def trace(
    name: str, trace_id: "str | None" = None, **attrs
) -> "_SpanContext":
    """Open a root span, starting (or joining) a trace.

    * If ``trace_id`` is given (e.g. from an incoming header), the new
      trace adopts it, correlating client and server timelines.
    * If a trace is already active (e.g. ``carbon3d trace`` wrapped the
      Session), the "root" degrades gracefully to a child span of it.
    """
    active = _current.get()
    if trace_id is None:
        trace_id = active.trace_id if active is not None else _new_id(16)
    parent_id = active.span_id if active is not None else None
    return _SpanContext(Span(trace_id, name, parent_id, attrs or None))


def span(name: str, **attrs):
    """Open a child span of the current trace; no-op when none is active."""
    active = _current.get()
    if active is None:
        return _NULL
    return _SpanContext(
        Span(active.trace_id, name, active.span_id, attrs or None)
    )


def current_trace_id() -> "str | None":
    """Trace id of the active trace, or None."""
    active = _current.get()
    return active.trace_id if active is not None else None


def active() -> bool:
    """Whether a trace is currently active in this context."""
    return _current.get() is not None


# -- reporting ---------------------------------------------------------------


def _child_index(spans: "list[Span]") -> "dict[str | None, list[Span]]":
    children: "dict[str | None, list[Span]]" = {}
    for item in spans:
        children.setdefault(item.parent_id, []).append(item)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.start_s)
    return children


def self_times(spans: "list[Span]") -> "dict[str, float]":
    """span_id -> duration minus the direct children's durations."""
    children = _child_index(spans)
    result: "dict[str, float]" = {}
    for item in spans:
        child_total = sum(
            c.duration_s for c in children.get(item.span_id, ())
        )
        result[item.span_id] = max(0.0, item.duration_s - child_total)
    return result


def stage_breakdown(spans: "list[Span]") -> "dict[str, dict]":
    """Aggregate spans by name: count, total and self time (seconds)."""
    selfs = self_times(spans)
    breakdown: "dict[str, dict]" = {}
    for item in spans:
        entry = breakdown.setdefault(
            item.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += item.duration_s
        entry["self_s"] += selfs[item.span_id]
    return breakdown


def render_tree(spans: "list[Span]") -> str:
    """Indented span tree with per-span total and self times."""
    if not spans:
        return "(no spans recorded)"
    children = _child_index(spans)
    known = {item.span_id for item in spans}
    selfs = self_times(spans)
    lines: "list[str]" = []

    def walk(item: Span, depth: int) -> None:
        indent = "  " * depth
        total_ms = item.duration_s * 1e3
        self_ms = selfs[item.span_id] * 1e3
        attrs = ""
        if item.attrs:
            inner = ", ".join(
                f"{k}={v}" for k, v in sorted(item.attrs.items())
            )
            attrs = f"  [{inner}]"
        lines.append(
            f"{indent}{item.name}  total={total_ms:.3f}ms"
            f"  self={self_ms:.3f}ms{attrs}"
        )
        for child in children.get(item.span_id, ()):
            walk(child, depth + 1)

    # Roots: no parent, or a parent we never saw (e.g. spans adopted
    # from a worker whose parent span finished in another process).
    roots = [
        item
        for item in spans
        if item.parent_id is None or item.parent_id not in known
    ]
    roots.sort(key=lambda s: s.start_s)
    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
