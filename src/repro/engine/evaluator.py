"""The batch evaluation engine: memoized, study-wide carbon evaluation.

A :class:`BatchEvaluator` plays the role of :class:`repro.core.model.
CarbonModel` for *many* evaluation points — (design × parameters ×
fab location × workload) — sharing every stage of the pipeline that two
points cannot distinguish:

* points are priced **stage by stage over a block**: each stage —
  resolve (Eqs. 7–10 and 15, Table 3), bandwidth (Sec. 3.4),
  operational (Eq. 16), embodied (Eqs. 3–6 and 11–14) — is one method
  call over the block's points (``_resolved``, ``_bandwidth``,
  ``_operational``, ``_embodied``). :meth:`BatchEvaluator.evaluate_many`
  is one block; :meth:`~BatchEvaluator.report`,
  :meth:`~BatchEvaluator.evaluate` and :meth:`~BatchEvaluator.total_kg`
  are blocks of one, and :meth:`~BatchEvaluator.total_kg_many` prices a
  chunk of Monte-Carlo draws as one block. Each stage call opens one
  ``stage.<name>`` trace span for the block (attrs ``points`` and
  ``misses``); each memo miss still fires the ``stage.<name>`` fault
  hook and records one ``carbon3d_stage_duration_seconds`` observation;
* design **resolution** (the expensive wirelength / area / BEOL
  math) is memoized on :func:`repro.pipeline.fingerprint.resolve_key`, and
  additionally shares its structural sub-results through a
  :class:`repro.core.resolve.ResolveCache`, so a Monte-Carlo draw that
  only perturbs the defect density re-prices yields without re-running
  the Davis model;
* **embodied**, **bandwidth** and **operational** stages are memoized on
  their own input fingerprints (see :mod:`repro.pipeline.fingerprint`);
  a totals block reuses a cached embodied report and otherwise sums the
  embodied components without records or storing them;
* every other registered :class:`repro.pipeline.CarbonBackend` (the
  Sec. 4 baselines) prices the point's resolution from the shared
  resolve memo through its ``price`` (not memoized) — pass ``backend=``
  (or set it on an :class:`EvalPoint`) to get a uniform
  :class:`~repro.pipeline.backends.BackendReport`;
* every entry point evaluates serially on the caller's thread; the
  memo layers are thread-safe, so one evaluator may be shared by
  concurrent callers (the threaded server's request threads do);
* :meth:`BatchEvaluator.scoped` hands out a lean request pass for one
  request's points — for callers that already deduplicate and cache
  across requests elsewhere (a store-backed service dispatcher). It has
  the same configuration, but its memo layers are plain dicts keyed by
  design identity (plus fab carbon intensity or workload), with no
  fingerprints, LRU layers or ``ResolveCache``; its counts land back in
  the parent's stats.

Per-point semantics hold inside a block: a failing point is skipped by
every later stage, and once the block is priced the error raised is the
one pricing the points one at a time would raise first (the
lowest-index failing point's, at its first failing stage).

Results are bit-identical to the scalar ``CarbonModel`` path: the engine
calls the very same stage functions with the very same inputs — caching
only changes *whether* a stage runs, never what it computes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..caching import EvictionPolicy, LRUCache
from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.bandwidth import BandwidthResult, evaluate_bandwidth
from ..core.design import ChipDesign
from ..core.embodied import EmbodiedReport, embodied_carbon, embodied_totals
from ..core.operational import Workload, operational_carbon
from ..core.report import LifecycleReport
from ..core.resolve import ResolveCache, ResolvedDesign, resolve_design
from ..errors import EvaluationTimeout, ParameterError
from ..obs import trace as obs_trace
from ..resilience.faults import resolve_injector
from ..pipeline import fingerprint as fp
from ..pipeline.backends import BackendReport, Repro3DBackend
from ..pipeline.registry import resolve_backend
from ..pipeline.stage import EvalContext


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


def _embodied_total(resolved: ResolvedDesign, params: ParameterSet,
                    ci: float) -> float:
    """Eq. 3 total (kg) without the per-die and per-bond records."""
    return embodied_totals(resolved, params, ci)[0]


class _Block:
    """Points priced stage by stage: one call per stage per block.

    Each stage method takes the whole block. It reads its inputs from the
    columns here (design, parameter set, resolve key, fab carbon
    intensity, workload) and fills its own result column. ``errors[i]``
    is point ``i``'s first failure; no later stage prices that point.
    The resolve stage prices every point, every later stage those in
    ``priced`` (an explicit backend prices its point's resolution
    itself). With a point deadline,
    ``spent[i]`` sums the time point ``i``'s own stage work took.
    A ``transient`` block stores no resolve, embodied or bandwidth
    result; a ``totals`` block prices embodied totals without records.
    """

    __slots__ = (
        "designs", "params", "rkeys", "cis", "workloads", "errors",
        "priced", "spent", "transient", "totals",
        "resolved", "bandwidth", "operational", "embodied",
    )

    def __init__(self, designs, params, rkeys, cis, workloads,
                 errors=None, priced=None, spent=None,
                 transient=False, totals=False) -> None:
        n = len(designs)
        self.designs = designs
        self.params = params
        self.rkeys = rkeys
        self.cis = cis
        self.workloads = workloads
        self.errors = [None] * n if errors is None else errors
        self.priced = range(n) if priced is None else priced
        self.spent = spent
        self.transient = transient
        self.totals = totals
        self.resolved = [None] * n
        self.bandwidth = [None] * n
        self.operational = [None] * n
        self.embodied = [None] * n

    def only(self, column: list):
        """The value in ``column`` of a block of one, or its error."""
        error = self.errors[0]
        if error is not None:
            raise error
        return column[0]


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
        #: Stage site (``stage.<name>``) → its bound
        #: ``carbon3d_stage_duration_seconds`` child series (``None``
        #: without a registry).
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
            f"stage.{stage}": hist.labels(stage=stage, backend="repro3d")
            for stage in _OBSERVED_STAGES
        }

    def scoped(self) -> "_RequestPass":
        """An evaluator for one request: this configuration, a lean memo.

        Returns a :class:`_RequestPass`, used as a context manager, with
        the same params, fab location, efficiency plugin, cache bound,
        point deadline, faults and metrics. It prices a block of points
        through the same stage methods, one call per stage per block.
        Its memo layers are plain dicts keyed by design identity; they
        start empty and are dropped with it. So repeats *within* the
        request still share stage results (one design object priced at
        several fab locations or workloads), while nothing feeds this
        evaluator's long-lived layers. It keeps no structural
        :class:`~repro.core.resolve.ResolveCache`, so it counts no
        structure hits or misses. On exit the child's counts are added
        into this evaluator's :attr:`stats`.
        """
        return _RequestPass(self)

    # -- cache plumbing ------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """Hit/miss counters, with the structural sub-cache synced in."""
        stats = self._book.total()
        if self.resolve_cache is not None:
            stats.structure_hits = self.resolve_cache.hits
            stats.structure_misses = self.resolve_cache.misses
        return stats

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

    # -- the stages: each one call over a block of points --------------------
    #
    # A stage call looks each of its points up in its memo layer and
    # prices the misses; a point that failed earlier is skipped. It opens
    # one ``stage.<name>`` span (none when it has no point to price),
    # with the ``points`` it priced and the ``misses`` among them, and
    # adds its hits and misses to the counts once.

    def _miss(self, block: _Block, i: int, site: str, compute, *args):
        """Price one memo miss of point ``i``: the ``site`` fault hook,
        then ``compute(*args)``, timed into the stage's histogram and the
        point's deadline budget."""
        spent = block.spent
        if self.faults.active:
            t0 = time.perf_counter()
            try:
                self.faults.hit(site)
            finally:
                if spent is not None:
                    spent[i] += time.perf_counter() - t0
        hists = self._stage_hists
        if hists is None and spent is None:
            return compute(*args)
        t0 = time.perf_counter()
        try:
            return compute(*args)
        finally:
            elapsed = time.perf_counter() - t0
            if hists is not None:
                hists[site].observe(elapsed)
            if spent is not None:
                spent[i] += elapsed

    def _resolved(self, block: _Block) -> None:
        """Resolve stage (Eqs. 7–10 and 15, Table 3) → ``block.resolved``."""
        errors, rkeys = block.errors, block.rkeys
        if not rkeys:
            return
        layer, out = self._caches.resolved, block.resolved
        hits = misses = 0
        with obs_trace.span("stage.resolve") as span:
            for i, rkey in enumerate(rkeys):
                if errors[i] is not None:
                    continue
                cached = layer.get(rkey)
                if cached is not None:
                    hits += 1
                else:
                    try:
                        cached = self._miss(
                            block, i, "stage.resolve", resolve_design,
                            block.designs[i], block.params[i],
                            self.resolve_cache,
                        )
                    except Exception as error:
                        errors[i] = error
                        continue
                    if not block.transient:
                        layer[rkey] = cached
                    misses += 1
                out[i] = cached
            if span is not None:
                span.attrs = {
                    "backend": "repro3d", "points": hits + misses,
                    "misses": misses,
                }
        stats = self._tally.stats
        stats.resolve_hits += hits
        stats.resolve_misses += misses

    def _bandwidth(self, block: _Block) -> None:
        """Sec. 3.4 bandwidth check → ``block.bandwidth``."""
        todo = block.priced
        if not todo:
            return
        errors, rkeys, params = block.errors, block.rkeys, block.params
        layer, out = self._caches.bandwidth, block.bandwidth
        hits = misses = 0
        with obs_trace.span("stage.bandwidth") as span:
            for i in todo:
                if errors[i] is not None:
                    continue
                try:
                    bkey = self._bkey(rkeys[i], params[i])
                    cached = layer.get(bkey)
                    if cached is not None:
                        hits += 1
                    else:
                        cached = self._miss(
                            block, i, "stage.bandwidth", evaluate_bandwidth,
                            block.resolved[i], params[i],
                        )
                        if not block.transient:
                            layer[bkey] = cached
                        misses += 1
                except Exception as error:
                    errors[i] = error
                    continue
                out[i] = cached
            if span is not None:
                span.attrs = {
                    "backend": "repro3d", "points": hits + misses,
                    "misses": misses,
                }
        stats = self._tally.stats
        stats.bandwidth_hits += hits
        stats.bandwidth_misses += misses

    def _operational(self, block: _Block) -> None:
        """Eq. 16 operational carbon of the points with a workload →
        ``block.operational``.

        Operational results are small and highly reusable (draws that
        only perturb embodied-side parameters share one), so they are
        stored (bounded) even for a transient block.
        """
        errors, workloads = block.errors, block.workloads
        todo = [
            i for i in block.priced
            if errors[i] is None and workloads[i] is not None
        ]
        if not todo:
            return
        layer, out = self._caches.operational, block.operational
        rkeys, params, bandwidth = block.rkeys, block.params, block.bandwidth
        hits = misses = 0
        with obs_trace.span("stage.operational") as span:
            for i in todo:
                try:
                    okey = self._okey(
                        rkeys[i], block.designs[i], params[i], workloads[i],
                        bandwidth[i],
                    )
                    cached = layer.get(okey)
                    if cached is not None:
                        hits += 1
                    else:
                        cached = self._miss(
                            block, i, "stage.operational",
                            operational_carbon, block.resolved[i],
                            params[i], workloads[i], bandwidth[i],
                            self.efficiency_plugin,
                        )
                        layer[okey] = cached
                        misses += 1
                except Exception as error:
                    errors[i] = error
                    continue
                out[i] = cached
            if span is not None:
                span.attrs = {
                    "backend": "repro3d", "points": hits + misses,
                    "misses": misses,
                }
        stats = self._tally.stats
        stats.operational_hits += hits
        stats.operational_misses += misses

    def _embodied(self, block: _Block) -> None:
        """Eq. 3 embodied carbon (Eqs. 3–6 and 11–14) → ``block.embodied``.

        Each point's :class:`EmbodiedReport`, or in a ``totals`` block
        its total (kg): a cached report's, else summed without records
        (:func:`repro.core.embodied.embodied_totals`) and not stored.
        """
        todo = block.priced
        if not todo:
            return
        errors, rkeys, params = block.errors, block.rkeys, block.params
        layer, out, totals = self._caches.embodied, block.embodied, block.totals
        cis = block.cis
        hits = misses = 0
        with obs_trace.span("stage.embodied") as span:
            for i in todo:
                if errors[i] is not None:
                    continue
                try:
                    ekey = self._ekey(
                        rkeys[i], block.designs[i], params[i], cis[i]
                    )
                    cached = layer.get(ekey)
                    if cached is not None:
                        value = cached.total_kg if totals else cached
                        hits += 1
                    else:
                        value = self._miss(
                            block, i, "stage.embodied",
                            _embodied_total if totals else embodied_carbon,
                            block.resolved[i], params[i], cis[i],
                        )
                        if not (totals or block.transient):
                            layer[ekey] = value
                        misses += 1
                except Exception as error:
                    errors[i] = error
                    continue
                out[i] = value
            if span is not None:
                span.attrs = {
                    "backend": "repro3d", "points": hits + misses,
                    "misses": misses,
                }
        stats = self._tally.stats
        stats.embodied_hits += hits
        stats.embodied_misses += misses

    # -- blocks of points ----------------------------------------------------

    def _one(self, design: ChipDesign, params: ParameterSet, location=None,
             workload: Workload | None = None) -> _Block:
        """A block of one point under the classic path (its fab carbon
        intensity looked up only when a ``location`` is given)."""
        rkey = self._rkey(design, params)
        ci = None if location is None else self._ci(params, location)
        return _Block([design], [params], [rkey], [ci], [workload])

    def _price(self, points, transient: bool = False,
               checked: bool = False) -> list:
        """Price ``points`` as one block → one report per point, in order.

        Each point's keys and fab carbon intensity are looked up first;
        then each stage runs once over the block (resolve, bandwidth,
        operational, embodied); then each point's report is built (an
        explicit backend prices the point's resolution). A
        point that fails is skipped by every later step, and once every
        point is priced, the lowest-index failure is raised: the error
        pricing the points one at a time would raise. ``checked`` fires
        the ``engine.point`` fault hook once per point and applies
        ``point_timeout_s`` to each point's own stage time.
        """
        n = len(points)
        designs, param_sets, workloads = [], [], []
        rkeys, cis, errors = [None] * n, [None] * n, [None] * n
        budget = self.point_timeout_s if checked else None
        spent = None if budget is None else [0.0] * n
        hook = checked and self.faults.active
        # index → (backend, fab location) of each point an explicit
        # backend prices.
        explicit: "dict[int, tuple]" = {}
        for i, point in enumerate(points):
            design = point.design
            params = self.params if point.params is None else point.params
            designs.append(design)
            param_sets.append(params)
            workloads.append(point.workload)
            try:
                if hook:
                    t0 = time.perf_counter()
                    try:
                        self.faults.hit("engine.point")
                    finally:
                        if spent is not None:
                            spent[i] += time.perf_counter() - t0
                location = point.fab_location
                if location is None:
                    location = self.fab_location
                backend = point.backend
                if backend is not None:
                    backend = resolve_backend(backend)
                    if not (
                        isinstance(backend, Repro3DBackend)
                        and backend.efficiency_plugin is self.efficiency_plugin
                    ):
                        explicit[i] = (backend, location)
                rkeys[i] = self._rkey(design, params)
                cis[i] = self._ci(params, location)
            except Exception as error:
                errors[i] = error
        priced = range(n)
        if explicit:
            priced = [i for i in priced if i not in explicit]
        block = _Block(
            designs, param_sets, rkeys, cis, workloads, errors, priced,
            spent, transient,
        )
        self._resolved(block)
        self._bandwidth(block)
        self._operational(block)
        self._embodied(block)

        stats = self._tally.stats
        results = [None] * n
        for i, point in enumerate(points):
            if errors[i] is not None:
                continue
            try:
                if i in explicit:
                    t0 = time.perf_counter()
                    result = self._backend_summary(block, i, *explicit[i])
                    if spent is not None:
                        spent[i] += time.perf_counter() - t0
                else:
                    result = LifecycleReport(
                        design_name=designs[i].name,
                        integration=block.resolved[i].spec.name,
                        embodied=block.embodied[i],
                        bandwidth=block.bandwidth[i],
                        operational=block.operational[i],
                    )
                    if point.backend is not None:
                        # A repro3d point on the engine's own path.
                        result = Repro3DBackend.wrap_report(result)
                stats.points_evaluated += 1
                if budget is not None and spent[i] > budget:
                    raise EvaluationTimeout(
                        f"point {point.label or point.design.name!r} "
                        f"exceeded its {budget:.3f}s evaluation budget "
                        f"({spent[i]:.3f}s elapsed)",
                        budget_s=budget,
                        elapsed_s=spent[i],
                    )
                results[i] = result
            except Exception as error:
                errors[i] = error
        for error in errors:
            if error is not None:
                raise error
        return results

    def _backend_summary(self, block: _Block, i: int, backend,
                         location) -> BackendReport:
        """Point ``i`` priced by ``backend`` over the block's resolution,
        under one ``stage.<backend name>`` span."""
        ctx = EvalContext(
            design=block.designs[i],
            params=block.params[i],
            fab_location=location,
            ci_fab=block.cis[i],
            workload=block.workloads[i],
        )
        with obs_trace.span(f"stage.{backend.name}", backend=backend.name):
            return backend.price(ctx, block.resolved[i])

    # -- single-point access -------------------------------------------------

    def embodied(
        self,
        design: ChipDesign,
        params: ParameterSet | None = None,
        fab_location: "str | float | None" = None,
    ) -> EmbodiedReport:
        """Memoized Eq. 3 embodied breakdown."""
        params = params if params is not None else self.params
        location = fab_location if fab_location is not None else self.fab_location
        block = self._one(design, params, location)
        self._resolved(block)
        self._embodied(block)
        return block.only(block.embodied)

    def report(
        self,
        design: ChipDesign,
        workload: Workload | None = None,
        params: ParameterSet | None = None,
        fab_location: "str | float | None" = None,
        transient: bool = False,
    ) -> LifecycleReport:
        """Full lifecycle report — the engine's ``CarbonModel.evaluate``.

        A block of one point. ``transient=True`` marks a point known not
        to repeat (e.g. one Monte-Carlo draw): existing cache entries are
        still used, but the point's own resolve/embodied/bandwidth
        results are not stored (operational results are, bounded — they
        are small and often shared across draws). Together with
        ``cache_limit``, which bounds every engine cache including the
        interning maps and the structural resolve sub-caches, a long
        stream of unique draws cannot grow the engine's memory (or the
        garbage collector's live set) without bound.
        """
        return self._price(
            [EvalPoint(design, params, fab_location, workload)], transient
        )[0]

    def total_kg(
        self,
        design: ChipDesign,
        workload: Workload | None = None,
        params: ParameterSet | None = None,
        fab_location: "str | float | None" = None,
        transient: bool = False,
    ) -> float:
        """Eq. 1 total — ``report(...).total_kg`` without building reports.

        A block of one of :meth:`total_kg_many`.
        """
        return self.total_kg_many(
            design, [params], workload, fab_location, transient
        )[0]

    def total_kg_many(
        self,
        design: ChipDesign,
        param_sets: "list[ParameterSet | None]",
        workload: Workload | None = None,
        fab_location: "str | float | None" = None,
        transient: bool = False,
    ) -> "list[float]":
        """Eq. 1 totals of ``design`` under each parameter set, in order
        (``None`` is this evaluator's set): one block, e.g. a chunk of
        Monte-Carlo draws.

        Embodied carbon is priced through
        :func:`repro.core.embodied.embodied_totals`: the same component
        equations as the report path, summed without the per-die and
        per-bond records (per draw those are pure allocation cost). A
        cached embodied report is reused; a miss prices the total under
        the same ``stage.embodied`` fault hook, span and histogram as
        :meth:`report`, and is not stored. As in :meth:`evaluate_many`,
        the lowest-index failure is raised once every point is priced.
        """
        location = fab_location if fab_location is not None else self.fab_location
        n = len(param_sets)
        param_sets = [
            params if params is not None else self.params
            for params in param_sets
        ]
        rkeys, cis, errors = [None] * n, [None] * n, [None] * n
        for i, params in enumerate(param_sets):
            try:
                rkeys[i] = self._rkey(design, params)
                cis[i] = self._ci(params, location)
            except Exception as error:
                errors[i] = error
        block = _Block(
            [design] * n, param_sets, rkeys, cis, [workload] * n,
            errors=errors, transient=transient, totals=True,
        )
        self._resolved(block)
        self._embodied(block)
        if workload is not None:
            self._bandwidth(block)
            self._operational(block)
        self._tally.stats.points_evaluated += errors.count(None)
        for error in errors:
            if error is not None:
                raise error
        if workload is None:
            return [embodied_kg + 0.0 for embodied_kg in block.embodied]
        return [
            embodied_kg + operational.total_kg
            for embodied_kg, operational in zip(
                block.embodied, block.operational
            )
        ]

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
        other backend prices the resolution from the shared resolve memo
        through its ``price``, unmemoized. Results are bit-identical to
        the backend's direct ``evaluate`` (same functions, same inputs).
        """
        # ``None`` means "the engine's own 3D-Carbon path" — including
        # this evaluator's efficiency plugin, matching ``report()`` and
        # ``EvalPoint(backend=None)``. An *explicit* backend (name or
        # instance) must stay bit-identical to that backend's direct
        # ``evaluate()``, so its fast path requires the plugins to
        # actually match; otherwise its own ``price`` runs with its own
        # plugin (None for the registered ``repro3d``).
        if backend is None:
            return Repro3DBackend.wrap_report(self.report(
                design, workload=workload, params=params,
                fab_location=fab_location, transient=transient,
            ))
        return self._price([EvalPoint(
            design, params, fab_location, workload, backend=backend,
        )], transient)[0]

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

    def evaluate(self, point: EvalPoint):
        """Evaluate one :class:`EvalPoint`: a block of one.

        Returns a :class:`LifecycleReport` for the classic path
        (``point.backend is None``) or a :class:`BackendReport` when the
        point names a backend explicitly. See :meth:`evaluate_many`.
        """
        return self._price((point,), checked=True)[0]

    def evaluate_many(self, points: "list[EvalPoint]") -> list:
        """Evaluate a batch of points as one block, preserving order.

        Each stage runs once over the block. The ``engine.point`` fault
        hook fires once per point. With ``point_timeout_s`` set, a point
        whose own stage work overran the budget raises the typed
        :class:`~repro.errors.EvaluationTimeout` (cooperative: checked
        once the point is priced, so a point never *returns* long after
        its budget without a typed error). Of several failing points,
        the lowest-index one's first error is raised.
        """
        return self._price(points, checked=True)


class _RequestPass(BatchEvaluator):
    """One request's points, priced with the parent's configuration.

    A store-backed dispatcher has already deduplicated the request by
    content key and pins one parameter set, so a stage result is reused
    only when one design object is priced at several fab locations or
    workloads (a ``/sweep`` prices one design object at each location).
    The memo layers are plain dicts keyed by identity on exactly that:
    the design and parameter set objects for resolve and bandwidth, that
    plus the fab carbon intensity for embodied, and that plus the
    workload for operational. The dispatcher hands equal designs of one
    request over as one object; other equal design objects are priced
    apart. No design is hashed, and no fingerprint, LRU layer or
    structural ``ResolveCache`` is built. Stages still run through the :class:`BatchEvaluator`
    methods, so fault hooks, spans, histograms and point deadlines are
    the parent's.
    """

    def __init__(self, parent: BatchEvaluator) -> None:
        # The parent's configuration as is (params, fab location, plugin,
        # cache bound, faults, deadline, metrics), then empty layers.
        self.__dict__.update(parent.__dict__)
        self.resolve_cache = self._resolve_cache()
        self._caches = _Caches(self._layer)
        self._book = self._counts()
        self._tally = self._book.tally
        self._ci_cache = self._layer()
        self._statics = self._layer()
        #: Identity key → (design, parameter set): holds each keyed pair
        #: so its ids cannot be reused while the pass lives.
        self._held: "dict[tuple[int, int], tuple]" = {}
        self._parent = parent

    def __enter__(self) -> "_RequestPass":
        return self

    def __exit__(self, *exc) -> bool:
        self._parent._book.add(self._tally.stats)
        return False

    def _layer(self) -> dict:
        return {}

    def _counts(self) -> _SoleBook:
        return _SoleBook()

    def _resolve_cache(self) -> None:
        return None

    def _rkey(self, design: ChipDesign, params: ParameterSet) -> tuple:
        key = (id(design), id(params))
        if key not in self._held:
            self._held[key] = (design, params)
        return key

    def _ekey(self, rkey, design, params, ci):
        return (rkey, ci)

    def _bkey(self, rkey, params):
        return rkey

    def _okey(self, rkey, design, params, workload, bandwidth):
        # Looked up for its error alone: an unknown use location fails
        # before the stage runs, as on the long-lived path.
        self._ci(params, workload.use_location)
        return (rkey, workload)
