"""Per-layer spans recorded from outside the program.

The benchmark wraps the public entry points of each layer (see
:data:`SERVER_PATCHES`, :data:`CLIENT_PATCHES` and
:data:`SESSION_PATCHES`) with timing shims at run time. Nothing under
``src/`` changes: a :class:`Tracer` swaps class and module attributes
for wrappers on :meth:`Tracer.install` and restores the originals on
:meth:`Tracer.uninstall`.

Each thread keeps a stack of open spans. A span's *self* time is its
duration minus the durations of its direct children; a layer's *busy*
time counts only spans whose parent belongs to another layer, so nested
calls inside one layer are counted once. The outermost span on a thread
is an *operation* (one served request, one exploration round); when it
closes, the per-layer and per-span sums of that operation are kept, so
medians per operation can be taken afterwards.

Span names follow the program's own vocabulary (``http.post``,
``dispatcher.<kind>``, ``dispatcher.compute``, ``store.get``,
``store.put``, ``stage.<name>``, ``vec.plan``, ``vec.eval``) and the
ledger names for boundaries that have no span yet (``tenant.resolve``,
``quota.admit``, ``schema.parse``, ``dispatcher.key``).
"""

from __future__ import annotations

import importlib
import statistics
import threading
from collections import Counter
from time import perf_counter

# (module, class or None, attribute, span name, layer)
SERVER_PATCHES = (
    ("repro.service.server", "ServiceHandler", "do_POST", "http.post", "server"),
    ("repro.tenancy.tokens", "TokenRegistry", "resolve", "tenant.resolve", "tenancy"),
    ("repro.tenancy.quota", "QuotaManager", "admit", "quota.admit", "tenancy"),
    ("repro.tenancy.usage", "UsageLedger", "record", "usage.record", "tenancy"),
    ("repro.service.store", "ResultStore", "get", "store.get", "store"),
    ("repro.service.store", "ResultStore", "put", "store.put", "store"),
    ("repro.service.store", "ResultStore", "try_claim", "store.claim", "store"),
    ("repro.service.store", "ResultStore", "release_claim", "store.release", "store"),
)

# Layers shared by the served and the in-process paths.
CORE_PATCHES = (
    ("repro.service.schema", None, "parse_evaluate_request", "schema.parse", "schema"),
    ("repro.service.schema", None, "parse_batch_request", "schema.parse", "schema"),
    ("repro.service.schema", None, "parse_sweep_request", "schema.parse", "schema"),
    ("repro.service.schema", None, "parse_montecarlo_request", "schema.parse", "schema"),
    ("repro.service.schema", None, "parse_optimize_request", "schema.parse", "schema"),
    ("repro.service.schema", None, "parse_request", "schema.parse", "schema"),
    ("repro.service.dispatcher", "Dispatcher", "evaluate", "dispatcher.evaluate", "dispatcher"),
    ("repro.service.dispatcher", "Dispatcher", "batch", "dispatcher.batch", "dispatcher"),
    ("repro.service.dispatcher", "Dispatcher", "sweep", "dispatcher.sweep", "dispatcher"),
    ("repro.service.dispatcher", "Dispatcher", "montecarlo", "dispatcher.montecarlo", "dispatcher"),
    ("repro.service.dispatcher", "Dispatcher", "optimize", "dispatcher.optimize", "dispatcher"),
    ("repro.service.dispatcher", "Dispatcher", "_run_compute", "dispatcher.compute", "dispatcher"),
    ("repro.service.dispatcher", "Dispatcher", "_point_key", "dispatcher.key", "key"),
    ("repro.service.dispatcher", "Dispatcher", "_optimize_key", "dispatcher.key.optimize", "key"),
    ("repro.service.dispatcher", None, "montecarlo_fingerprint", "dispatcher.key.montecarlo", "key"),
    ("repro.engine.evaluator", "BatchEvaluator", "evaluate_many", "engine.evaluate_many", "engine"),
    ("repro.engine.evaluator", "BatchEvaluator", "report", "engine.report", "engine"),
    ("repro.engine.evaluator", "BatchEvaluator", "total_kg", "engine.total_kg", "engine"),
    ("repro.engine.evaluator", "BatchEvaluator", "backend_total_kg", "engine.backend_total_kg", "engine"),
    ("repro.engine.evaluator", "BatchEvaluator", "_resolved", "stage.resolve", "engine"),
    ("repro.engine.evaluator", "BatchEvaluator", "_embodied", "stage.embodied", "engine"),
    ("repro.engine.evaluator", "BatchEvaluator", "_bandwidth", "stage.bandwidth", "engine"),
    ("repro.engine.evaluator", "BatchEvaluator", "_operational", "stage.operational", "engine"),
    ("repro.engine.montecarlo", None, "monte_carlo_totals", "engine.monte_carlo_totals", "engine"),
    ("repro.vec.grid", "DesignGrid", "from_axes", "vec.grid", "vec"),
    ("repro.vec.plan", "VectorizedBatch", "plan", "vec.plan", "vec"),
    ("repro.vec.evaluate", None, "evaluate_grid", "vec.eval", "vec"),
    ("repro.analysis.optimizer", None, "evaluate_grid", "vec.eval", "vec"),
    ("repro.analysis.optimizer", "ParetoSearch", "run", "analysis.pareto", "analysis"),
    ("repro.analysis.optimizer", None, "_merge_front", "analysis.pareto", "analysis"),
    ("repro.analysis.uncertainty", None, "monte_carlo", "analysis.monte_carlo", "analysis"),
    ("repro.uncertainty.plan", "PerturbationPlan", "__init__", "uncertainty.plan", "uncertainty"),
    ("repro.uncertainty.plan", "PerturbationPlan", "draw", "uncertainty.draw", "uncertainty"),
    ("repro.uncertainty.plan", "PerturbationPlan", "perturbed", "uncertainty.draw", "uncertainty"),
)

CLIENT_PATCHES = (
    ("repro.service.client", "ServiceClient", "_request", "http.request", "client"),
    ("repro.service.client", "_ConnectionPool", "_connect", "client.connect", "client"),
)

SESSION_PATCHES = (
    ("repro.api.session", "Session", "run", "session.run", "api"),
)


#: EngineStats fields every count probe records.
ENGINE_COUNTS = (
    "points_evaluated", "resolve_misses", "structure_misses",
    "embodied_misses", "bandwidth_misses", "operational_misses",
)


def repeat_counts(probe, problems: "list[str]", unasserted=()) -> dict:
    """Run a count probe twice; report every count that differs.

    ``unasserted`` names counts that legitimately depend on thread
    interleaving; they are kept but not compared.
    """
    first, second = probe(0), probe(1)
    for key, value in first.items():
        if key not in unasserted and second[key] != value:
            problems.append(
                f"count {key} did not repeat: {value} then {second[key]}"
            )
    return first


def _observe_plan(batch, counts: Counter) -> None:
    counts["vec.points"] += batch.point_count
    counts["vec.shape_groups"] += batch.group_count


#: Work counts read off a wrapped call's return value.
OBSERVERS = {"vec.plan": _observe_plan}


def quantile(values, q: float) -> float:
    """The ``q`` quantile of ``values`` (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def window_metrics(start: float, ops, windows: int = 5) -> dict:
    """Throughput and latency of a timed loop, steadied by windows.

    ``ops`` are ``(end, latency_s, points)`` per operation; ``start`` is
    when the loop began. The operations are cut, in completion order,
    into ``windows`` runs of equal count; every figure is taken per
    window and the median over windows is reported. A stall of the
    shared host then moves one window, not the result; with no stalls
    each figure equals the one taken over the whole loop.
    """
    ops = sorted(ops, key=lambda op: op[0])
    size = max(len(ops) // windows, 1)
    cuts = [ops[i * size:(i + 1) * size] for i in range(len(ops) // size)]
    rows, begin = [], start
    for cut in cuts:
        elapsed = cut[-1][0] - begin
        latencies = [latency for _, latency, _ in cut]
        rows.append({
            "throughput_rps": len(cut) / elapsed,
            "points_per_s": sum(points for *_, points in cut) / elapsed,
            "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
            "latency_p90_ms": quantile(latencies, 0.90) * 1e3,
        })
        begin = cut[-1][0]
    summary = {
        name: statistics.median(row[name] for row in rows) for name in rows[0]
    }
    summary["requests"] = len(ops)
    return summary


class _Span:
    __slots__ = ("tracer", "name", "layer")

    def __init__(self, tracer: "Tracer", name: str, layer: str) -> None:
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self) -> None:
        self.tracer.enter(self.name, self.layer)

    def __exit__(self, *exc) -> bool:
        self.tracer.exit(self.name, self.layer)
        return False


class Tracer:
    """Collects span durations, per-operation sums and call counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: span name -> every duration in seconds.
        self.calls: "dict[str, list[float]]" = {}
        #: one dict of sums per finished operation.
        self.operations: "list[dict[str, float]]" = []
        #: span name -> calls, plus counts from :data:`OBSERVERS`.
        self.counts: Counter = Counter()
        self._counts_lock = threading.Lock()
        self._saved: list = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, layer: str) -> None:
        stack = self._stack()
        if not stack:
            self._local.sums = {}
        stack.append([name, layer, perf_counter(), 0.0])

    def exit(self, name: str, layer: str) -> None:
        end = perf_counter()
        stack = self._local.stack
        _, _, start, children = stack.pop()
        duration = end - start
        own = duration - children
        sums = self._local.sums
        if stack:
            parent = stack[-1]
            parent[3] += duration
            outermost = parent[1] != layer
        else:
            outermost = True
        durations = self.calls.get(name)
        if durations is None:
            durations = self.calls.setdefault(name, [])
        durations.append(duration)
        with self._counts_lock:
            self.counts[name] += 1
        for key, value in (
            ("self:" + layer, own),
            ("nself:" + name, own),
            ("ndur:" + name, duration),
        ):
            sums[key] = sums.get(key, 0.0) + value
        if outermost:
            sums["busy:" + layer] = sums.get("busy:" + layer, 0.0) + duration
        if not stack:
            self.operations.append(sums)

    def span(self, name: str, layer: str) -> "_Span":
        """Context manager around a block of the benchmark's own code."""
        return _Span(self, name, layer)

    def reset(self) -> None:
        self.calls.clear()
        self.operations.clear()
        self.counts.clear()

    # -- patching -------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        enter, exit_ = self.enter, self.exit
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, layer)
            if observe is not None:
                with self._counts_lock:
                    observe(result, self.counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, patches) -> None:
        """Swap every ``(module, class, attr)`` for a timing wrapper."""
        for module_name, class_name, attr, name, layer in patches:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            raw = owner.__dict__[attr] if class_name else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, layer))
            else:
                patched = self._wrap(raw, name, layer)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Put every original attribute back (in reverse order)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- summaries ------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready medians: per call, per operation, and counts."""
        keys = set()
        for sums in self.operations:
            keys.update(sums)
        per_op = {
            key: statistics.median(sums.get(key, 0.0) for sums in self.operations)
            for key in keys
        }
        return {
            "calls": {
                name: {
                    "n": len(values),
                    "p50": quantile(values, 0.5),
                    "p99": quantile(values, 0.99),
                }
                for name, values in self.calls.items()
            },
            "per_op": per_op,
            "totals": {
                key: sum(sums.get(key, 0.0) for sums in self.operations)
                for key in keys
            },
            "ops": len(self.operations),
            "counts": dict(self.counts),
        }
