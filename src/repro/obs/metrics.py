"""Stdlib-only metrics: counters, gauges, histograms, Prometheus text.

The service layer needs latency distributions and cache hit-rates, not
just monotonically growing ints — and it needs them mutated safely from
the many threads of a ``ThreadingHTTPServer``. This module provides the
three classic instrument types plus a registry that renders them both as
a JSON snapshot (for ``/stats``) and as Prometheus text exposition
format 0.0.4 (for ``GET /metrics``):

* :class:`Counter` — monotonically increasing, lock-protected ``inc()``.
* :class:`Gauge` — a settable value *or* a zero-argument callback
  sampled at collect time (for "current" readings such as cache sizes
  that already live elsewhere).
* :class:`Histogram` — fixed cumulative buckets tuned for request
  latencies, with a :meth:`Histogram.summary` that interpolates
  p50/p90/p99 from the bucket counts.

All three support Prometheus-style labels via :meth:`labels` — e.g.
``registry.histogram("carbon3d_stage_duration_seconds").labels(
stage="embodied", backend="3dcarbon")`` — each label combination being
its own independently-locked child series.

Everything here is dependency-free and usable standalone (a bare
``Histogram()`` works without any registry), so benches can reuse the
percentile math without dragging in the service.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

# Cumulative upper bounds (seconds) tuned for this service's latencies:
# engine stages sit in the tens of microseconds, HTTP round-trips in the
# low milliseconds, forked MC studies in the tens of milliseconds.
DEFAULT_BUCKETS: "tuple[float, ...]" = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _format_value(value: float) -> str:
    """Prometheus-friendly number: ints bare, floats via repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_key(labels: dict) -> "tuple[tuple[str, str], ...]":
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: "tuple[tuple[str, str], ...]") -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


def _merge_labels(
    extra: "tuple[tuple[str, str], ...]",
    key: "tuple[tuple[str, str], ...]",
) -> "tuple[tuple[str, str], ...]":
    """Registry const-labels merged under a series' own labels.

    A series label with the same name wins over the const label, so an
    instrument that already tags ``worker=`` keeps its own value.
    """
    if not extra:
        return key
    merged = dict(extra)
    merged.update(dict(key))
    return _label_key(merged)


class _Scalar:
    """One number per label set: the body of :class:`Counter` and
    :class:`Gauge`, rendered with the subclass's ``kind``.
    """

    kind = ""
    #: Value of a fresh series (its ``/stats`` snapshot before any write).
    initial: "int | float" = 0

    def __init__(self, name: str = "", help: str = "", fn=None) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = self.initial
        self._fn = fn
        self._children: "dict[tuple, _Scalar]" = {}

    def set_function(self, fn) -> None:
        """Sample ``fn()`` at every collection instead of a stored value.

        For readings whose source of truth already lives elsewhere
        (e.g. ``EngineStats`` fields, cache sizes).
        """
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> "int | float":
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return fn()
        except Exception:
            return 0

    def labels(self, **labels):
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = type(self)(self.name, self.help)
                self._children[key] = child
            return child

    # -- collection ----------------------------------------------------------

    def _series(self):
        with self._lock:
            children = dict(self._children)
        if children:
            for key, child in sorted(children.items()):
                yield key, child.value
        else:
            yield (), self.value

    def render(self, extra: "tuple[tuple[str, str], ...]" = ()) -> "list[str]":
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, value in self._series():
            key = _merge_labels(extra, key)
            lines.append(
                f"{self.name}{_render_labels(key)} {_format_value(value)}"
            )
        return lines

    def snapshot(self):
        series = list(self._series())
        if len(series) == 1 and series[0][0] == ():
            return series[0][1]
        return {
            _render_labels(key) or "total": value for key, value in series
        }


class Counter(_Scalar):
    """A monotonically increasing, thread-safe counter."""

    kind = "counter"

    def inc(self, amount: "int | float" = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """A settable value or a callback sampled at collect time."""

    kind = "gauge"
    initial = 0.0

    def set(self, value: "int | float") -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: "int | float" = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: "int | float" = 1) -> None:
        with self._lock:
            self._value -= amount


class Histogram:
    """Fixed cumulative-bucket histogram with percentile summaries."""

    kind = "histogram"

    def __init__(
        self,
        name: str = "",
        help: str = "",
        buckets: "tuple[float, ...]" = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._min: "float | None" = None
        self._max: "float | None" = None
        self._children: "dict[tuple, Histogram]" = {}

    def observe(self, value: float) -> None:
        # The first bucket whose bound is >= value (a value equal to a
        # bound counts in that bound's bucket). NaN is above no bound,
        # so it counts in +Inf.
        buckets = self.buckets
        index = (
            bisect_left(buckets, value) if value == value else len(buckets)
        )
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def time(self):
        """Context manager observing the elapsed wall time of its body."""
        return _HistogramTimer(self)

    def labels(self, **labels) -> "Histogram":
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Histogram(self.name, self.help, self.buckets)
                self._children[key] = child
            return child

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """Interpolated quantile (0..1) from cumulative bucket counts."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            low = self._min
            high = self._max
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for i, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                lower = self.buckets[i - 1] if i > 0 else (low or 0.0)
                if i < len(self.buckets):
                    upper = self.buckets[i]
                else:
                    upper = high if high is not None else lower
                lower = max(lower, low or 0.0)
                upper = min(upper, high if high is not None else upper)
                if upper < lower:
                    upper = lower
                fraction = (rank - cumulative) / count
                return lower + (upper - lower) * fraction
            cumulative += count
        return high or 0.0

    def summary(self) -> dict:
        """count/sum/mean/min/max + interpolated p50/p90/p99."""
        with self._lock:
            total = self._count
            total_sum = self._sum
            low = self._min
            high = self._max
        if total == 0:
            return {"count": 0}
        return {
            "count": total,
            "sum": total_sum,
            "mean": total_sum / total,
            "min": low,
            "max": high,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def _series(self):
        with self._lock:
            children = dict(self._children)
        if children:
            for key, child in sorted(children.items()):
                yield key, child
        else:
            yield (), self

    def render(self, extra: "tuple[tuple[str, str], ...]" = ()) -> "list[str]":
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} histogram",
        ]
        for key, child in self._series():
            key = _merge_labels(extra, key)
            with child._lock:
                counts = list(child._counts)
                total_sum = child._sum
                total = child._count
            cumulative = 0
            for bound, count in zip(child.buckets, counts):
                cumulative += count
                labels = dict(key)
                labels["le"] = _format_value(bound)
                lines.append(
                    f"{self.name}_bucket{_render_labels(_label_key(labels))}"
                    f" {cumulative}"
                )
            labels = dict(key)
            labels["le"] = "+Inf"
            lines.append(
                f"{self.name}_bucket{_render_labels(_label_key(labels))}"
                f" {total}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(key)}"
                f" {_format_value(total_sum)}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {total}")
        return lines

    def snapshot(self):
        series = list(self._series())
        if len(series) == 1 and series[0][0] == ():
            return series[0][1].summary()
        return {_render_labels(key): child.summary() for key, child in series}


class _HistogramTimer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self):
        import time

        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        import time

        self._histogram.observe(time.perf_counter() - self._start)
        return False


class MetricsRegistry:
    """A named collection of metrics with two render targets.

    ``render_prometheus()`` emits text exposition format 0.0.4 for
    ``GET /metrics``; ``snapshot()`` emits a JSON-ready dict for the
    ``/stats`` envelope. Registering an existing name returns the
    existing instrument (so modules can idempotently declare what they
    use).

    ``const_labels`` are stamped onto every Prometheus series the
    registry renders — the fleet front end uses ``{"worker": "<i>"}`` so
    a scrape that round-robins across pre-forked workers never silently
    mixes per-process counters into one series. A series' own label with
    the same name wins. JSON snapshots stay unlabelled (the ``/stats``
    payload carries the worker index at the envelope level instead).
    """

    def __init__(self, const_labels: "dict[str, str] | None" = None) -> None:
        self._lock = threading.Lock()
        self._metrics: "dict[str, object]" = {}
        self.const_labels = dict(const_labels) if const_labels else {}
        self._collect_hooks: "dict[str, object]" = {}
        #: Serializes collections, so a hook's reading is its scrape's own.
        self._collect_lock = threading.Lock()

    def _register(self, factory, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                return existing
            metric = factory(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", fn=None) -> Counter:
        counter = self._register(Counter, name, help)
        if fn is not None:
            counter.set_function(fn)
        return counter

    def gauge(self, name: str, help: str = "", fn=None) -> Gauge:
        gauge = self._register(Gauge, name, help)
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: "tuple[float, ...]" = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def on_collect(self, name: str, fn) -> None:
        """Run ``fn()`` once at the start of every collection.

        Callback instruments that sample one source can then share a
        single read of it per scrape: ``fn`` takes the reading and their
        callbacks read from it. Collections run one at a time, so every
        instrument of a scrape sees that scrape's reading. ``name`` keys
        the hook: registering the same name again replaces it, as a new
        ``fn=`` replaces an instrument's callback.
        """
        with self._lock:
            self._collect_hooks[name] = fn

    def _run_collect_hooks(self) -> None:
        with self._lock:
            hooks = list(self._collect_hooks.values())
        for hook in hooks:
            hook()

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> "list[str]":
        with self._lock:
            return sorted(self._metrics)

    def render_prometheus(self) -> str:
        with self._collect_lock:
            self._run_collect_hooks()
            with self._lock:
                metrics = [
                    self._metrics[name] for name in sorted(self._metrics)
                ]
            extra = _label_key(self.const_labels)
            lines: "list[str]" = []
            for metric in metrics:
                lines.extend(metric.render(extra))
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        with self._collect_lock:
            self._run_collect_hooks()
            with self._lock:
                metrics = dict(self._metrics)
            return {
                name: metric.snapshot()
                for name, metric in sorted(metrics.items())
            }
