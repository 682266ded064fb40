"""The batch evaluation engine: memoized, study-wide carbon evaluation.

A :class:`BatchEvaluator` plays the role of :class:`repro.core.model.
CarbonModel` for *many* evaluation points — (design × parameters ×
fab location × workload) — sharing every stage of the pipeline that two
points cannot distinguish:

* design **resolution** (the expensive wirelength / area / floorplan
  math) is memoized on :func:`repro.pipeline.fingerprint.resolve_key`, and
  additionally shares its structural sub-results through a
  :class:`repro.core.resolve.ResolveCache`, so a Monte-Carlo draw that
  only perturbs the defect density re-prices yields without re-running
  the Davis model;
* **embodied**, **bandwidth** and **operational** stages are memoized on
  their own input fingerprints (see :mod:`repro.pipeline.fingerprint`);
  :meth:`BatchEvaluator.total_kg` reuses a cached embodied report and
  otherwise prices the record-free embodied total without storing it;
* every other registered :class:`repro.pipeline.CarbonBackend` (the
  Sec. 4 baselines) runs its own stage pipeline with the resolve stage
  seeded from the shared resolve memo (its later stages are not
  memoized) — pass ``backend=`` (or set it on an :class:`EvalPoint`)
  to get a uniform :class:`~repro.pipeline.backends.BackendReport`;
* every entry point evaluates serially on the caller's thread; the
  memo layers are thread-safe, so one evaluator may be shared by
  concurrent callers (the threaded server's request threads do);
* :meth:`BatchEvaluator.scoped` hands out a lean request pass for one
  request's points — for callers that already deduplicate and cache
  across requests elsewhere (a store-backed service dispatcher). It has
  the same configuration, but its memo layers are plain dicts keyed by
  value on the design (plus fab carbon intensity or workload), with no
  fingerprints, LRU layers or ``ResolveCache``; its counts land back in
  the parent's stats.

Results are bit-identical to the scalar ``CarbonModel`` path: the engine
calls the very same stage functions with the very same inputs — caching
only changes *whether* a stage runs, never what it computes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..caching import EvictionPolicy, LRUCache
from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.bandwidth import BandwidthResult, evaluate_bandwidth
from ..core.design import ChipDesign
from ..core.embodied import EmbodiedReport, embodied_carbon, embodied_total_kg
from ..core.operational import (
    OperationalReport,
    Workload,
    operational_carbon,
)
from ..core.report import LifecycleReport
from ..core.resolve import ResolveCache, ResolvedDesign, resolve_design
from ..errors import EvaluationTimeout, ParameterError
from ..obs import trace as obs_trace
from ..resilience.faults import resolve_injector
from ..pipeline import fingerprint as fp
from ..pipeline.backends import BackendReport, Repro3DBackend
from ..pipeline.registry import resolve_backend
from ..pipeline.stage import EvalContext, PipelineRun


@dataclass(frozen=True)
class EvalPoint:
    """One point of a batch study.

    ``params``, ``fab_location`` and ``workload`` default to the
    evaluator's own (``None`` means "inherit"); ``label`` tags the result
    for the caller and never influences evaluation. ``backend`` selects a
    registered :class:`repro.pipeline.CarbonBackend` by name — ``None``
    keeps the classic 3D-Carbon path (a :class:`LifecycleReport`), any
    explicit name (including ``"repro3d"``) yields the uniform
    :class:`~repro.pipeline.backends.BackendReport`.
    """

    design: ChipDesign
    params: ParameterSet | None = None
    fab_location: "str | float | None" = None
    workload: Workload | None = None
    label: str | None = None
    backend: str | None = None


@dataclass
class EngineStats:
    """Hit/miss counters per memo layer (plus the structural sub-cache)."""

    resolve_hits: int = 0
    resolve_misses: int = 0
    embodied_hits: int = 0
    embodied_misses: int = 0
    bandwidth_hits: int = 0
    bandwidth_misses: int = 0
    operational_hits: int = 0
    operational_misses: int = 0
    structure_hits: int = 0
    structure_misses: int = 0
    points_evaluated: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    def add(self, other: "EngineStats") -> None:
        """Add ``other``'s counts into this record."""
        for field, value in other.__dict__.items():
            if value:
                setattr(self, field, getattr(self, field) + value)


class _Tally(threading.local):
    """The current thread's :class:`EngineStats` in a :class:`_Book`."""

    def __init__(self, book: "_Book") -> None:
        self.stats = EngineStats()
        book.enroll(self.stats)


class _Book:
    """Hit/miss counts of an evaluator that threads share.

    A plain ``+=`` on one record shared by request threads loses counts
    when two threads interleave. So each thread counts into its own
    record, ``tally.stats``, with no lock, and :meth:`total` sums them.
    A finished thread's record is folded into one record when the next
    thread enrolls, so the list of records stays as long as the set of
    live threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._folded = EngineStats()
        self._live: "list[tuple[threading.Thread, EngineStats]]" = []
        self.tally = _Tally(self)

    def enroll(self, stats: EngineStats) -> None:
        with self._lock:
            live = []
            for thread, counts in self._live:
                if thread.is_alive():
                    live.append((thread, counts))
                else:
                    self._folded.add(counts)
            live.append((threading.current_thread(), stats))
            self._live = live

    def add(self, stats: EngineStats) -> None:
        """Add counts made elsewhere (a finished request pass)."""
        with self._lock:
            self._folded.add(stats)

    def total(self) -> EngineStats:
        total = EngineStats()
        with self._lock:
            total.add(self._folded)
            for _, counts in self._live:
                total.add(counts)
        return total


class _SoleBook:
    """Hit/miss counts of an evaluator used by one thread (a request
    pass): one record, counted and read without a lock."""

    __slots__ = ("tally", "stats")

    def __init__(self) -> None:
        self.tally = self
        self.stats = EngineStats()

    def total(self) -> EngineStats:
        return self.stats


class _Caches:
    """The per-stage memo layers, each built by ``layer()``: LRU-bounded
    under one shared policy, or plain dicts for one request."""

    __slots__ = ("resolved", "embodied", "bandwidth", "operational")

    def __init__(self, layer) -> None:
        self.resolved = layer()
        self.embodied = layer()
        self.bandwidth = layer()
        self.operational = layer()


#: The repro3d stages whose memo misses are observed (span + histogram).
_OBSERVED_STAGES = ("resolve", "embodied", "bandwidth", "operational")


class _StageObservation:
    """Context manager: trace span + latency histogram for one stage.

    ``hist`` is the stage's already-bound labelled child series (or
    ``None`` when only a trace is active).
    """

    __slots__ = ("_hist", "_span_cm", "_t0")

    def __init__(self, hist, stage: str) -> None:
        self._hist = hist
        self._span_cm = obs_trace.span(f"stage.{stage}", backend="repro3d")
        self._t0 = 0.0

    def __enter__(self):
        self._span_cm.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._hist is not None:
            self._hist.observe(time.perf_counter() - self._t0)
        return self._span_cm.__exit__(exc_type, exc, tb)


class _NullObservation:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_OBSERVATION = _NullObservation()


class BatchEvaluator:
    """Memoized evaluation of many (design, params, location, workload) points."""

    def __init__(
        self,
        params: ParameterSet | None = None,
        fab_location: "str | float" = "taiwan",
        efficiency_plugin=None,
        cache_limit: int = 4096,
        faults=None,
        point_timeout_s: "float | None" = None,
        metrics=None,
    ) -> None:
        self.params = params if params is not None else DEFAULT_PARAMETERS
        self.fab_location = fab_location
        self.efficiency_plugin = efficiency_plugin
        #: Fault-injection hook set (the process-global injector unless a
        #: plan/injector is passed). ``faults.active`` is False outside
        #: fault tests, so the per-stage hooks cost one attribute read.
        self.faults = resolve_injector(faults)
        if point_timeout_s is not None and point_timeout_s <= 0:
            raise ParameterError(
                f"point_timeout_s must be > 0, got {point_timeout_s}"
            )
        #: Per-point budget for :meth:`evaluate` (cooperative: checked at
        #: point completion, raising the typed ``EvaluationTimeout``).
        self.point_timeout_s = point_timeout_s
        #: Per-cache entry bound, enforced as LRU eviction — the same
        #: :class:`repro.caching.EvictionPolicy` the persistent service
        #: store applies. Point streams whose keys never repeat (e.g.
        #: draws perturbing a spec field) recycle the stalest entries, so
        #: a very long-lived evaluator keeps a bounded, current working
        #: set instead of freezing its caches at the first fill.
        self.cache_limit = cache_limit
        self.eviction_policy = EvictionPolicy(max_entries=cache_limit)
        self.resolve_cache = self._resolve_cache()
        self._caches = _Caches(self._layer)
        #: Hit/miss counts: a stage counts into ``self._tally.stats``,
        #: the current thread's record of ``self._book``.
        self._book = self._counts()
        self._tally = self._book.tally
        # Identity-keyed interning of draw-stable lookups. Values hold
        # strong references to the keyed objects, so an id can never be
        # recycled while its entry is alive.
        self._ci_cache = self._layer()
        self._statics = self._layer()
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`. When
        #: attached, stage computations (memo misses) record into a
        #: per-stage latency histogram; with neither a registry nor an
        #: active trace, the stage hot paths stay uninstrumented.
        self.metrics = None
        #: Stage name → its bound ``carbon3d_stage_duration_seconds``
        #: child series (``None`` without a registry).
        self._stage_hists: "dict | None" = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, registry) -> None:
        """Record per-stage miss latencies into ``registry`` (idempotent).

        The dispatcher calls this with its own registry so an
        externally-supplied evaluator feeds the same ``/metrics``
        endpoint; a second attach of the same registry is a no-op and a
        different registry takes over.
        """
        if registry is None or registry is self.metrics:
            return
        self.metrics = registry
        hist = registry.histogram(
            "carbon3d_stage_duration_seconds",
            "Engine stage compute time on memo misses, by stage/backend",
        )
        # Bound once here: ``labels()`` sorts its key and takes a lock.
        self._stage_hists = {
            stage: hist.labels(stage=stage, backend="repro3d")
            for stage in _OBSERVED_STAGES
        }

    def _observe_stage(self, stage: str):
        """Span + miss-latency observation around one stage computation.

        Returns a no-op context when neither a metrics registry is
        attached nor a trace is active, so plain library use pays a
        single attribute test per miss.
        """
        hists = self._stage_hists
        if hists is None and not obs_trace.active():
            return _NULL_OBSERVATION
        hist = None if hists is None else hists[stage]
        return _StageObservation(hist, stage)

    @contextmanager
    def scoped(self):
        """An evaluator for one request: this configuration, a lean memo.

        Yields a :class:`_RequestPass` with the same params, fab location,
        efficiency plugin, cache bound, point deadline, faults and
        metrics. Its memo layers are plain dicts that start empty and
        are dropped with it, so repeats *within* the request still share
        stage results while nothing feeds this evaluator's long-lived
        layers; it keeps no structural
        :class:`~repro.core.resolve.ResolveCache`, so it counts no
        structure hits or misses. On exit the child's counts
        are added into this evaluator's :attr:`stats`.
        """
        child = _RequestPass(self)
        try:
            yield child
        finally:
            self._book.add(child._tally.stats)

    # -- cache plumbing ------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """Hit/miss counters, with the structural sub-cache synced in."""
        stats = self._book.total()
        if self.resolve_cache is not None:
            stats.structure_hits = self.resolve_cache.hits
            stats.structure_misses = self.resolve_cache.misses
        return stats

    def clear(self) -> None:
        """Drop every memoized result (stats reset too)."""
        if self.resolve_cache is not None:
            self.resolve_cache.clear()
        self._caches = _Caches(self._layer)
        self._book = self._counts()
        self._tally = self._book.tally
        self._ci_cache.clear()
        self._statics.clear()

    def _layer(self) -> LRUCache:
        """One memo layer under this evaluator's eviction policy."""
        return LRUCache(self.eviction_policy)

    def _counts(self) -> "_Book | _SoleBook":
        """The hit/miss counts: per thread, as threads may share this."""
        return _Book()

    def _resolve_cache(self) -> "ResolveCache | None":
        """The structural sub-cache :func:`resolve_design` reuses."""
        return ResolveCache(policy=self.eviction_policy)

    def _ci(self, params: ParameterSet, location) -> float:
        """Grid carbon intensity, interned per (grid table, location)."""
        try:
            entry = self._ci_cache.get((id(params.grids), location))
        except TypeError:  # unhashable location (e.g. a profile object)
            return params.grid(location).kg_co2_per_kwh
        if entry is None or entry[0] is not params.grids:
            entry = (params.grids, params.grid(location).kg_co2_per_kwh)
            self._ci_cache[(id(params.grids), location)] = entry
        return entry[1]

    def _static(self, design: ChipDesign, spec) -> tuple:
        """Interned draw-stable key parts for one (design, spec) pair.

        Returns ``(CachedKey((design, spec)), operational prefix)``.
        """
        entry = self._statics.get((id(design), id(spec)))
        if (
            entry is None
            or entry[0].value[0] is not design
            or entry[0].value[1] is not spec
        ):
            entry = (
                fp.CachedKey((design, spec)),
                fp.operational_prefix(design, spec),
            )
            self._statics[(id(design), id(spec))] = entry
        return entry

    # The memo key of each stage. A stage result is reused exactly when
    # its key repeats; :class:`_RequestPass` overrides these with value
    # keys for one request's points.

    def _rkey(self, design: ChipDesign, params: ParameterSet) -> "fp.CachedKey":
        """Resolve fingerprint with the static (design, spec) part interned."""
        spec = params.integration_spec(design.integration)
        return fp.resolve_key(design, params, self._static(design, spec)[0])

    def _ekey(self, rkey, design: ChipDesign, params: ParameterSet,
              ci: float):
        return fp.embodied_key(rkey, design, params, ci)

    def _bkey(self, rkey, params: ParameterSet):
        return fp.bandwidth_key(rkey, params)

    def _okey(self, rkey, design: ChipDesign, params: ParameterSet,
              workload: Workload, bandwidth: BandwidthResult):
        spec = rkey.value[0].value[1]
        return fp.operational_key(
            rkey, self._static(design, spec)[1], spec, params, workload,
            self._ci(params, workload.use_location), bandwidth,
            self.efficiency_plugin,
        )

    def _fingerprint(self, rkey, design: ChipDesign, params: ParameterSet):
        """The resolve fingerprint a backend's own stage keys build on."""
        return rkey

    # -- single-stage access (all memoized) ----------------------------------

    def resolved(
        self, design: ChipDesign, params: ParameterSet | None = None
    ) -> ResolvedDesign:
        """Memoized :func:`resolve_design`."""
        params = params if params is not None else self.params
        return self._resolved(design, params, self._rkey(design, params))

    def _resolved(
        self,
        design: ChipDesign,
        params: ParameterSet,
        rkey: tuple,
        transient: bool = False,
    ) -> ResolvedDesign:
        cached = self._caches.resolved.get(rkey)
        if cached is None:
            if self.faults.active:
                self.faults.hit("stage.resolve")
            with self._observe_stage("resolve"):
                cached = resolve_design(
                    design, params, cache=self.resolve_cache
                )
            if not transient:
                self._caches.resolved[rkey] = cached
            self._tally.stats.resolve_misses += 1
        else:
            self._tally.stats.resolve_hits += 1
        return cached

    def embodied(
        self,
        design: ChipDesign,
        params: ParameterSet | None = None,
        fab_location: "str | float | None" = None,
    ) -> EmbodiedReport:
        """Memoized Eq. 3 embodied breakdown."""
        params = params if params is not None else self.params
        location = fab_location if fab_location is not None else self.fab_location
        rkey = self._rkey(design, params)
        return self._embodied(design, params, rkey, self._ci(params, location))

    def _embodied(
        self,
        design: ChipDesign,
        params: ParameterSet,
        rkey: tuple,
        ci: float,
        resolved: "ResolvedDesign | None" = None,
        transient: bool = False,
    ) -> EmbodiedReport:
        ekey = self._ekey(rkey, design, params, ci)
        cached = self._caches.embodied.get(ekey)
        if cached is None:
            if self.faults.active:
                self.faults.hit("stage.embodied")
            with self._observe_stage("embodied"):
                if resolved is None:
                    resolved = self._resolved(design, params, rkey, transient)
                cached = embodied_carbon(resolved, params, ci)
            if not transient:
                self._caches.embodied[ekey] = cached
            self._tally.stats.embodied_misses += 1
        else:
            self._tally.stats.embodied_hits += 1
        return cached

    def bandwidth(
        self, design: ChipDesign, params: ParameterSet | None = None
    ) -> BandwidthResult:
        """Memoized Sec. 3.4 bandwidth check."""
        params = params if params is not None else self.params
        return self._bandwidth(design, params, self._rkey(design, params))

    def _bandwidth(
        self,
        design: ChipDesign,
        params: ParameterSet,
        rkey: tuple,
        resolved: "ResolvedDesign | None" = None,
        transient: bool = False,
    ) -> BandwidthResult:
        bkey = self._bkey(rkey, params)
        cached = self._caches.bandwidth.get(bkey)
        if cached is None:
            if self.faults.active:
                self.faults.hit("stage.bandwidth")
            with self._observe_stage("bandwidth"):
                if resolved is None:
                    resolved = self._resolved(design, params, rkey, transient)
                cached = evaluate_bandwidth(resolved, params)
            if not transient:
                self._caches.bandwidth[bkey] = cached
            self._tally.stats.bandwidth_misses += 1
        else:
            self._tally.stats.bandwidth_hits += 1
        return cached

    def operational(
        self,
        design: ChipDesign,
        workload: Workload,
        params: ParameterSet | None = None,
    ) -> OperationalReport:
        """Memoized Eq. 16 operational carbon."""
        params = params if params is not None else self.params
        rkey = self._rkey(design, params)
        return self._operational(
            design, params, rkey, workload, self._bandwidth(design, params, rkey)
        )

    def _operational(
        self,
        design: ChipDesign,
        params: ParameterSet,
        rkey: tuple,
        workload: Workload,
        bandwidth: BandwidthResult,
        resolved: "ResolvedDesign | None" = None,
        transient: bool = False,
    ) -> OperationalReport:
        okey = self._okey(rkey, design, params, workload, bandwidth)
        cached = self._caches.operational.get(okey)
        if cached is None:
            if self.faults.active:
                self.faults.hit("stage.operational")
            with self._observe_stage("operational"):
                if resolved is None:
                    resolved = self._resolved(design, params, rkey, transient)
                cached = operational_carbon(
                    resolved, params, workload, bandwidth,
                    self.efficiency_plugin,
                )
            # Operational results are small and highly reusable (draws that
            # only perturb embodied-side parameters share one), so they are
            # stored (bounded) even for transient points.
            self._caches.operational[okey] = cached
            self._tally.stats.operational_misses += 1
        else:
            self._tally.stats.operational_hits += 1
        return cached

    # -- full-report evaluation ----------------------------------------------

    def report(
        self,
        design: ChipDesign,
        workload: Workload | None = None,
        params: ParameterSet | None = None,
        fab_location: "str | float | None" = None,
        transient: bool = False,
    ) -> LifecycleReport:
        """Full lifecycle report — the engine's ``CarbonModel.evaluate``.

        ``transient=True`` marks a point known not to repeat (e.g. one
        Monte-Carlo draw): existing cache entries are still used, but the
        point's own resolve/embodied/bandwidth results are not stored
        (operational results are, bounded — they are small and often
        shared across draws). Together with ``cache_limit``, which bounds
        every engine cache including the interning maps and the
        structural resolve sub-caches, a long stream of unique draws
        cannot grow the engine's memory (or the garbage collector's live
        set) without bound.
        """
        params = params if params is not None else self.params
        location = fab_location if fab_location is not None else self.fab_location
        rkey = self._rkey(design, params)
        ci = self._ci(params, location)
        resolved = self._resolved(design, params, rkey, transient)
        bandwidth = self._bandwidth(design, params, rkey, resolved, transient)
        operational = None
        if workload is not None:
            operational = self._operational(
                design, params, rkey, workload, bandwidth, resolved, transient
            )
        self._tally.stats.points_evaluated += 1
        return LifecycleReport(
            design_name=design.name,
            integration=resolved.spec.name,
            embodied=self._embodied(
                design, params, rkey, ci, resolved, transient
            ),
            bandwidth=bandwidth,
            operational=operational,
        )

    def total_kg(
        self,
        design: ChipDesign,
        workload: Workload | None = None,
        params: ParameterSet | None = None,
        fab_location: "str | float | None" = None,
        transient: bool = False,
    ) -> float:
        """Eq. 1 total — ``report(...).total_kg`` without building reports.

        Uses the record-free component twins (see
        :func:`repro.core.embodied.embodied_total_kg`), which compute the
        same floats in the same order as the full report path; the
        equivalence tests pin the two bit for bit. Monte-Carlo draws take
        this path: per draw, the per-die/per-bond record objects of a
        ``LifecycleReport`` are pure allocation cost. A cached embodied
        report is reused; a miss prices the total under the same
        ``stage.embodied`` fault hook, span and histogram as
        :meth:`report`, and is not stored.
        """
        params = params if params is not None else self.params
        location = fab_location if fab_location is not None else self.fab_location
        rkey = self._rkey(design, params)
        ci = self._ci(params, location)
        resolved = self._resolved(design, params, rkey, transient)

        # Prefer an already-built full report's total when present.
        ekey = self._ekey(rkey, design, params, ci)
        embodied = self._caches.embodied.get(ekey)
        if embodied is not None:
            embodied_kg = embodied.total_kg
            self._tally.stats.embodied_hits += 1
        else:
            if self.faults.active:
                self.faults.hit("stage.embodied")
            with self._observe_stage("embodied"):
                embodied_kg = embodied_total_kg(resolved, params, ci)
            self._tally.stats.embodied_misses += 1

        operational_kg = 0.0
        if workload is not None:
            bandwidth = self._bandwidth(
                design, params, rkey, resolved, transient
            )
            operational_kg = self._operational(
                design, params, rkey, workload, bandwidth, resolved, transient
            ).total_kg
        self._tally.stats.points_evaluated += 1
        return embodied_kg + operational_kg

    # -- backend-protocol evaluation ------------------------------------------

    def backend_report(
        self,
        design: ChipDesign,
        backend=None,
        params: ParameterSet | None = None,
        fab_location: "str | float | None" = None,
        workload: Workload | None = None,
        transient: bool = False,
    ) -> BackendReport:
        """Evaluate ``design`` through any registered carbon backend.

        ``backend`` is a registry name or a :class:`~repro.pipeline.
        CarbonBackend` instance (``None`` → ``repro3d``). The default
        3D-Carbon backend takes the engine's specialized memo path; every
        other backend runs its explicit stage pipeline with the resolve
        stage seeded from the shared resolve memo; its later stages run
        unmemoized. Results are bit-identical to the backend's direct
        ``evaluate`` (same stage functions, same inputs).
        """
        # ``None`` means "the engine's own 3D-Carbon path" — including
        # this evaluator's efficiency plugin, matching ``report()`` and
        # ``EvalPoint(backend=None)``. An *explicit* backend (name or
        # instance) must stay bit-identical to that backend's direct
        # ``evaluate()``, so its fast path requires the plugins to
        # actually match; otherwise its own pipeline runs with its own
        # plugin (None for the registered ``repro3d``).
        if backend is None:
            return Repro3DBackend.wrap_report(self.report(
                design, workload=workload, params=params,
                fab_location=fab_location, transient=transient,
            ))
        backend = resolve_backend(backend)
        params = params if params is not None else self.params
        location = fab_location if fab_location is not None else self.fab_location
        if (
            isinstance(backend, Repro3DBackend)
            and backend.efficiency_plugin is self.efficiency_plugin
        ):
            return Repro3DBackend.wrap_report(self.report(
                design, workload=workload, params=params,
                fab_location=location, transient=transient,
            ))
        ctx = EvalContext(
            design=design,
            params=params,
            fab_location=location,
            ci_fab=self._ci(params, location),
            workload=workload,
        )
        run = PipelineRun(backend, ctx)
        if backend.has_stage("resolve"):
            rkey = self._rkey(design, params)
            run.seed(
                "resolve", self._fingerprint(rkey, design, params),
                self._resolved(design, params, rkey, transient),
            )
        summary = run.summary()
        self._tally.stats.points_evaluated += 1
        return summary

    def backend_total_kg(
        self,
        design: ChipDesign,
        backend=None,
        params: ParameterSet | None = None,
        fab_location: "str | float | None" = None,
        workload: Workload | None = None,
        transient: bool = False,
    ) -> float:
        """Eq. 1 total under any backend (report-free repro3d fast path).

        ``backend=None`` is the engine's own path (plugin included), as
        in :meth:`backend_report`; an explicit backend prices exactly as
        its direct ``evaluate()`` would.
        """
        if backend is None:
            return self.total_kg(
                design, workload=workload, params=params,
                fab_location=fab_location, transient=transient,
            )
        backend = resolve_backend(backend)
        if (
            isinstance(backend, Repro3DBackend)
            and backend.efficiency_plugin is self.efficiency_plugin
        ):
            return self.total_kg(
                design, workload=workload, params=params,
                fab_location=fab_location, transient=transient,
            )
        return self.backend_report(
            design, backend, params=params, fab_location=fab_location,
            workload=workload, transient=transient,
        ).total_kg

    def evaluate_grid(self, grid):
        """Price a :class:`~repro.vec.DesignGrid` → columnar
        :class:`~repro.vec.GridResult` through the vectorized core.

        Shape-group planning plus columnar math over the wafer-diameter
        and fab-CI axes, sharing this engine's memos; bit-identical to
        the scalar pipeline (see :mod:`repro.vec`).
        """
        from ..vec.evaluate import evaluate_grid

        return evaluate_grid(grid, evaluator=self)

    def evaluate(self, point: EvalPoint):
        """Evaluate one :class:`EvalPoint`.

        Returns a :class:`LifecycleReport` for the classic path
        (``point.backend is None``) or a :class:`BackendReport` when the
        point names a backend explicitly. With ``point_timeout_s`` set,
        a point whose evaluation overruns the budget raises the typed
        :class:`~repro.errors.EvaluationTimeout` (cooperative: the check
        runs at point completion — a point never *returns* long after
        its budget without a typed error).
        """
        budget = self.point_timeout_s
        t0 = time.monotonic() if budget is not None else 0.0
        if self.faults.active:
            # Fires after t0 so injected delays count against the budget.
            self.faults.hit("engine.point")
        if point.backend is None:
            result = self.report(
                point.design,
                workload=point.workload,
                params=point.params,
                fab_location=point.fab_location,
            )
        else:
            result = self.backend_report(
                point.design,
                point.backend,
                params=point.params,
                fab_location=point.fab_location,
                workload=point.workload,
            )
        if budget is not None:
            elapsed = time.monotonic() - t0
            if elapsed > budget:
                raise EvaluationTimeout(
                    f"point {point.label or point.design.name!r} exceeded "
                    f"its {budget:.3f}s evaluation budget "
                    f"({elapsed:.3f}s elapsed)",
                    budget_s=budget,
                    elapsed_s=elapsed,
                )
        return result

    def evaluate_many(self, points: "list[EvalPoint]") -> list:
        """Evaluate a batch of points serially, preserving order."""
        return [self.evaluate(point) for point in points]


class _RequestPass(BatchEvaluator):
    """One request's points, priced with the parent's configuration.

    A store-backed dispatcher has already deduplicated the request by
    content key and pins one parameter set, so a stage result is reused
    only when one design is priced at several fab locations or
    workloads. The memo layers are plain dicts keyed by value on exactly
    that: the design (with the parameter set, by identity) for resolve
    and bandwidth, that plus the fab carbon intensity for embodied, and
    that plus the workload for operational. No fingerprint, LRU layer or
    structural ``ResolveCache`` is built. Stages still run through the
    :class:`BatchEvaluator` methods, so fault hooks, spans, histograms
    and point deadlines are the parent's.
    """

    def __init__(self, parent: BatchEvaluator) -> None:
        #: id → parameter set: holds each keyed set so its id stays unique.
        self._param_sets: "dict[int, ParameterSet]" = {}
        super().__init__(
            params=parent.params,
            fab_location=parent.fab_location,
            efficiency_plugin=parent.efficiency_plugin,
            cache_limit=parent.cache_limit,
            faults=parent.faults,
            point_timeout_s=parent.point_timeout_s,
        )
        self.metrics = parent.metrics
        self._stage_hists = parent._stage_hists

    def _layer(self) -> dict:
        return {}

    def _counts(self) -> _SoleBook:
        return _SoleBook()

    def _resolve_cache(self) -> None:
        return None

    def _rkey(self, design: ChipDesign, params: ParameterSet) -> "fp.CachedKey":
        self._param_sets.setdefault(id(params), params)
        # Hashes the design once per point; the keys below reuse it.
        return fp.CachedKey((design, id(params)))

    def _ekey(self, rkey, design, params, ci):
        return (rkey, ci)

    def _bkey(self, rkey, params):
        return rkey

    def _okey(self, rkey, design, params, workload, bandwidth):
        # Looked up for its error alone: an unknown use location fails
        # before the stage runs, as on the long-lived path.
        self._ci(params, workload.use_location)
        return (rkey, workload)

    def _fingerprint(self, rkey, design, params):
        return fp.resolve_key(design, params)
