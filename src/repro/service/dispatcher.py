"""Request dispatch: dedup + coalescing between the wire and the engine.

The dispatcher owns one long-lived :class:`repro.engine.BatchEvaluator`
and (optionally) a :class:`~repro.service.store.ResultStore`, and answers
parsed schema requests:

* every request first computes its **content key** (the digest of the
  value fingerprints the engine would use — see :func:`evaluate_fingerprint`)
  and consults the store; a hit returns the persisted payload with zero
  engine work (no resolve, no embodied math);
* concurrent *identical* misses are coalesced: the first thread computes
  through the evaluator, later threads wait on its
  :class:`~concurrent.futures.Future` — one engine call, N responses;
* batch/sweep/compare requests are deduplicated point-wise and priced
  in blocks (see :meth:`Dispatcher._price_points`): a block's distinct
  keys are read from the store in one call, and its misses go through
  ``BatchEvaluator.evaluate_many`` as one batch and into the store as
  one write. An enveloped request is one block, a stream one block per
  point; every served point, ``/evaluate`` included, reaches the engine
  through ``BatchEvaluator.evaluate``;
* every computed payload feeds the store, so the *next* process serves
  it from disk — which makes the store the cross-request cache: with a
  store, point requests compute through a request-scoped child of the
  evaluator (see :meth:`Dispatcher._point_engine`).

Responses are JSON-ready dicts, bit-identical to
``CarbonModel.evaluate(...).to_dict()`` for the same inputs: computed
payloads come from the engine (which calls the very same stage
functions), and stored payloads round-trip through JSON, which preserves
floats exactly (``repr`` shortest-float round-tripping). The HTTP
``/evaluate``, ``/batch`` and ``/sweep`` routes skip that round trip:
they ask for reports as JSON text — a store hit as stored, a computed
batch report as the text it was stored as — and splice it into the
response as is.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
import uuid
from concurrent.futures import Future, TimeoutError as FutureTimeoutError

from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..obs import trace as obs_trace
from ..obs.metrics import Counter, MetricsRegistry
from ..resilience.breaker import open_breaker_count
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..errors import EvaluationTimeout, ParameterError
from ..engine import BatchEvaluator, EvalPoint
from ..resilience.deadline import Deadline
from ..resilience.faults import resolve_injector
from ..pipeline.registry import (
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
    resolve_backend,
)
from ..pipeline.stage import EvalContext
from ..tenancy.namespace import (
    active_tenant,
    current_tenant,
    namespace_key,
    record_usage,
)
from ..tenancy.quota import QuotaManager
from ..tenancy.usage import UsageLedger
from ..vec.grid import default_splits, expansion_bound, grid_axes
from .schema import (
    MAX_GRID_POINTS,
    NAMED_WORKLOAD_TEXTS,
    SCHEMA_VERSION,
    BatchRequest,
    CompareRequest,
    EncodedJSON,
    EvaluateRequest,
    MonteCarloRequest,
    OptimizeRequest,
    STUDY_KINDS,
    SchemaError,
    SweepRequest,
    TornadoRequest,
    remembered,
    streaming_kind,
    workload_to_value,
)
from .store import ResultStore, record_texts

#: ``cache`` tags in responses, from cheapest to most expensive.
SOURCE_STORE = "store"
SOURCE_COALESCED = "coalesced"
SOURCE_COMPUTED = "computed"

#: Bound on ``Dispatcher._verified`` (store key → the payload text last
#: checked to be a JSON object); the memo is emptied when it fills.
#: Handler threads share it unlocked: a lost entry costs one decode.
_VERIFIED_MAX = 1024

#: Bound on ``Dispatcher._keys`` (remembered ``/evaluate`` request →
#: its store key), emptied when it fills, shared unlocked the same way.
#: An entry holds a request parsed from at most
#: ``schema.PARSE_MEMO_BODY_MAX`` body bytes.
_KEYS_MAX = 1024


def evaluate_fingerprint(
    design: ChipDesign,
    params: ParameterSet,
    fab_location: "str | float",
    workload: "Workload | None",
    backend: "str | None" = None,
) -> tuple:
    """The value fingerprint of one full-report evaluation.

    The backend id plus the backend's own store fingerprint — the union
    of its per-stage keys (for ``repro3d``: the resolve fingerprint, the
    Eq. 3 extras, the Sec. 3.4 constraint block and the workload part;
    for the baselines: whatever *their* stages read, which is less).
    Everything the backend's pipeline can observe, and nothing more, so
    the store shares entries exactly as widely as the engine's memos do —
    and never across backends.
    """
    backend = resolve_backend(backend)
    ctx = EvalContext.build(design, params, fab_location, workload)
    return (
        "evaluate",
        SCHEMA_VERSION,
        backend.name,
        backend.store_fingerprint(ctx),
    )


def montecarlo_fingerprint(
    design: ChipDesign,
    params: ParameterSet,
    fab_location: "str | float",
    workload: "Workload | None",
    samples: int,
    seed: int,
    backend: "str | None" = None,
    return_samples: bool = False,
) -> tuple:
    """The value fingerprint of a Monte-Carlo summary.

    The evaluate fingerprint pins every base value the pipeline reads;
    the draw sequence is pinned by (samples, seed) and by the *backend's
    own* factor set — the full declarative fingerprint (names, ranges,
    distributions, correlation groups, targets), so two studies share a
    stored summary exactly when they drew the same factors the same way,
    and never across backends with different sets. ``return_samples`` is
    part of the key: a summary-only payload must never serve a request
    that asked for the full distribution.
    """
    factor_set = resolve_backend(backend).factor_set(design, params)
    return (
        "montecarlo",
        evaluate_fingerprint(design, params, fab_location, workload, backend),
        factor_set.fingerprint(),
        samples,
        seed,
        return_samples,
    )


def front_payload(request: OptimizeRequest, snapshots) -> dict:
    """The optimize result: the request's echo plus the record of the
    last of a search's per-chunk ``snapshots``.

    The enveloped and the streamed result are built here from the same
    snapshots, so they render the same.
    """
    # Deferred: the optimizer rides on numpy, which pure-service
    # sessions otherwise never import.
    from ..analysis.optimizer import front_record

    last = {"chunk": 0, "evaluated": 0, "errors": 0, "front": []}
    for last in snapshots:
        pass
    return {
        "design": request.design.name,
        "workload": workload_to_value(request.workload),
        "max_configs": request.max_configs,
        "seed": request.seed,
        **front_record(
            last["front"], last["evaluated"], last["errors"], last["chunk"]
        ),
    }


class DispatchStats:
    """Where responses came from, over the dispatcher's lifetime.

    Each field is an atomic :class:`~repro.obs.metrics.Counter` — the
    dispatcher serves many ``ThreadingHTTPServer`` threads at once, and
    the previous plain ``int +=`` fields silently lost increments under
    that contention. Mutate through :meth:`inc`; reads stay plain
    attribute access (``stats.requests``), so callers and tests are
    unchanged. When a registry is given the counters are registered as
    ``carbon3d_dispatcher_<field>_total`` for ``/metrics``.
    """

    FIELDS = {
        "requests": "Requests handled, by the dispatcher's lifetime",
        "points": "Evaluation points requested (incl. dedup/store hits)",
        "computed": "Points computed through the engine",
        "store_hits": "Points served from the persistent result store",
        "coalesced": "Requests that waited on an identical in-flight one",
        "deduplicated": "In-request duplicate points reusing a twin",
        "claims": "Cross-process claims acquired before computing",
        "claim_waits": "Requests that waited on a peer worker's claim",
        "claims_expired": "Stale claims swept (a worker died mid-claim)",
        "errors": "Requests answered with an error envelope",
    }

    __slots__ = ("_counters",)

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        counters = {}
        for name, help_text in self.FIELDS.items():
            metric_name = f"carbon3d_dispatcher_{name}_total"
            if registry is not None:
                counters[name] = registry.counter(metric_name, help_text)
            else:
                counters[name] = Counter(metric_name, help_text)
        object.__setattr__(self, "_counters", counters)

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to the named counter.

        Billable counters (points / computed / store hits) are also
        mirrored into the active request's tenant context, so one code
        path keeps the global dispatch stats and the per-tenant usage
        ledger in lockstep (``record_usage`` is a no-op outside a
        tenant-scoped request — local sessions pay nothing).
        """
        self._counters[name].inc(amount)
        record_usage(name, amount)

    def __getattr__(self, name: str):
        counters = object.__getattribute__(self, "_counters")
        try:
            return counters[name].value
        except KeyError:
            raise AttributeError(name) from None

    def as_dict(self) -> dict:
        return {name: self._counters[name].value for name in self.FIELDS}


def _instrumented(kind: str):
    """Time a request handler into the dispatch histogram, under a span."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(self, request, *, deadline=None, **options):
            with self._dispatch_hist.labels(kind=kind).time():
                with obs_trace.span(f"dispatcher.{kind}"):
                    return fn(self, request, deadline=deadline, **options)

        return inner

    return wrap


class Dispatcher:
    """Evaluate parsed service requests through one shared engine."""

    def __init__(
        self,
        params: "ParameterSet | None" = None,
        fab_location: "str | float" = "taiwan",
        store: "ResultStore | None" = None,
        evaluator: "BatchEvaluator | None" = None,
        faults=None,
        metrics: "MetricsRegistry | None" = None,
        claim_ttl_s: float = 60.0,
        claim_poll_s: float = 0.002,
    ) -> None:
        self.params = params if params is not None else DEFAULT_PARAMETERS
        #: The parameter records' canonical text, rendered once and
        #: reused by every content key (see :func:`~repro.service.store.
        #: record_texts`): a request's keys read it through the overlay
        #: :meth:`_key_records` makes, and it is never written again.
        self._records = record_texts(self.params)
        self.fab_location = fab_location
        self.store = store
        self.faults = resolve_injector(faults)
        #: Cross-process dedup knobs: a claim a worker holds while it
        #: computes expires after ``claim_ttl_s`` (so a killed worker
        #: never wedges a key), and peers waiting on a foreign claim
        #: poll the store every ``claim_poll_s``. The owner id makes
        #: claims attributable across a pre-forked fleet.
        self.claim_ttl_s = claim_ttl_s
        self.claim_poll_s = claim_poll_s
        self.claim_owner = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.evaluator = (
            evaluator
            if evaluator is not None
            else BatchEvaluator(
                params=self.params,
                fab_location=fab_location,
                faults=self.faults,
                metrics=self.metrics,
            )
        )
        if self.evaluator.efficiency_plugin is not None:
            # A plugin may read anything off the resolved design, which no
            # session-stable content key can capture — cached payloads
            # would silently serve plugin-less numbers.
            raise ParameterError(
                "the service dispatcher does not support evaluators with "
                "an efficiency plugin"
            )
        self.evaluator.attach_metrics(self.metrics)
        self.stats = DispatchStats(self.metrics)
        #: The last scrape's ``ResultStore.stats()`` (see
        #: :meth:`_read_store_stats`).
        self._store_reading: dict = {}
        #: Tenancy control plane: the usage ledger writes through the
        #: shared store (fleet-wide totals), and the quota manager holds
        #: this process's token buckets. Both are inert for anonymous
        #: traffic — admission returns immediately without a quota.
        self.usage = UsageLedger(store)
        self.quotas = QuotaManager()
        self._dispatch_hist = self.metrics.histogram(
            "carbon3d_dispatch_duration_seconds",
            "Wall time spent in each dispatcher request handler",
        )
        self._register_collect_metrics()
        self._inflight: "dict[str, Future]" = {}
        self._lock = threading.Lock()
        self._verified: "dict[str, str]" = {}
        #: (tenant, id(request)) → (request, backend, store key) of
        #: remembered ``/evaluate`` requests (see :meth:`_point_key`).
        self._keys: "dict[tuple[str, int], tuple]" = {}

    def _register_collect_metrics(self) -> None:
        """Collect-time callbacks over state that lives elsewhere.

        Engine memo hit ratios, store occupancy and worker-recovery
        counts already have a source of truth (``EngineStats``, the
        SQLite store); ``/metrics`` samples them through callbacks
        instead of double-counting.
        """
        registry = self.metrics
        hit_ratio = registry.gauge(
            "carbon3d_engine_cache_hit_ratio",
            "Lifetime hit ratio of each engine memo layer",
        )
        for layer in ("resolve", "structure", "embodied", "bandwidth",
                      "operational"):
            hit_ratio.labels(layer=layer).set_function(
                functools.partial(self._cache_hit_ratio, layer)
            )
        registry.counter(
            "carbon3d_engine_points_evaluated_total",
            "Points computed by the engine (cache misses at point level)",
            fn=lambda: self.evaluator.stats.points_evaluated,
        )
        registry.gauge(
            "carbon3d_breakers_open",
            "Live circuit breakers in this process not fully closed",
            fn=open_breaker_count,
        )
        store_gauges = {
            "entries": "Rows currently persisted in the result store",
            "hits": "Lifetime store lookup hits",
            "misses": "Lifetime store lookup misses",
            "evictions": "Entries evicted to honour max_entries",
            "quarantined": "Corrupt entries quarantined by self-healing",
        }
        # One ResultStore.stats() per scrape feeds all five gauges.
        registry.on_collect("carbon3d_store", self._read_store_stats)
        for field, help_text in store_gauges.items():
            registry.gauge(
                f"carbon3d_store_{field}",
                help_text,
                fn=functools.partial(self._store_stat, field),
            )

    def _cache_hit_ratio(self, layer: str) -> float:
        stats = self.evaluator.stats
        hits = getattr(stats, f"{layer}_hits")
        misses = getattr(stats, f"{layer}_misses")
        total = hits + misses
        return hits / total if total else 0.0

    def _read_store_stats(self) -> None:
        """Collect hook: the store reading this scrape's gauges share."""
        self._store_reading = (
            self.store.stats() if self.store is not None else {}
        )

    def _store_stat(self, field: str):
        return self._store_reading.get(field, 0)

    def _admit(self, points: int) -> None:
        """Per-tenant quota gate, before any stats or engine work.

        Charges the active tenant's token bucket ``points`` and checks
        its absolute ceilings against the fleet-wide ledger; raises the
        typed :class:`~repro.tenancy.quota.QuotaExceededError` (wire
        429) on rejection. Runs *before* the per-handler ``points``
        increment so a rejected request never pollutes the tenant's
        billed totals, and before any claim/compute so a rejected
        request costs the service nothing.
        """
        ctx = current_tenant()
        if ctx is None or ctx.quota is None:
            return
        self.quotas.admit(ctx.tenant, ctx.quota, points, usage=self.usage)

    def _begin(self, points: int) -> None:
        """Admit a request of ``points`` points, then count it."""
        self._admit(points)
        self.stats.inc("requests")
        self.stats.inc("points", points)

    # -- store/coalescing plumbing ------------------------------------------

    def _store_get(
        self, key: str, encoded: bool = False
    ) -> "dict | EncodedJSON | None":
        """The stored result for ``key``, or ``None`` on a miss.

        ``encoded`` returns the stored text itself (for the HTTP
        envelope to splice in); otherwise the decoded dict. A row that
        is not a JSON object counts as a miss (see :meth:`_checked_hit`).
        """
        if self.store is None:
            return None
        with obs_trace.span("store.get") as span:
            payload = self.store.get(key)
            if span is not None:
                span.attrs["hit"] = payload is not None
        if payload is None:
            return None
        result = self._checked_hit(key, payload, encoded)
        if result is not None:
            self.stats.inc("store_hits")
        return result

    def _store_get_many(
        self, keys: "list[str]", encoded: bool = False
    ) -> "list[dict | EncodedJSON | None]":
        """:meth:`_store_get` of every key, in one store read."""
        if self.store is None:
            return [None] * len(keys)
        with obs_trace.span("store.get") as span:
            payloads = self.store.get_many(keys)
            if span is not None:
                span.attrs["hits"] = len(payloads) - payloads.count(None)
        results = [
            None if payload is None
            else self._checked_hit(key, payload, encoded)
            for key, payload in zip(keys, payloads)
        ]
        hits = len(results) - results.count(None)
        if hits:
            self.stats.inc("store_hits", hits)
        return results

    def _checked_hit(
        self, key: str, payload: str, encoded: bool
    ) -> "dict | EncodedJSON | None":
        """A stored row as a result, or ``None`` if it is not an object.

        A row that is not a JSON object counts as a miss, so the caller
        recomputes and overwrites it — the store is a cache of
        recomputable results. With ``encoded`` the row comes back as
        :class:`EncodedJSON` text, and it is decoded only the first time
        this process serves it: :attr:`_verified` remembers the exact
        text checked per key, and any other text is checked anew.
        """
        if encoded and self._verified.get(key) == payload:
            return EncodedJSON(payload)
        try:
            result = json.loads(payload)
        except ValueError:
            result = None
        if not isinstance(result, dict):
            print(
                f"[carbon3d] result store row {key[:16]}... is not a "
                f"JSON object; recomputing it",
                file=sys.stderr,
                flush=True,
            )
            return None
        if not encoded:
            return result
        if len(self._verified) >= _VERIFIED_MAX:
            self._verified.clear()
        self._verified[key] = payload
        return EncodedJSON(payload)

    def _store_put(self, key: str, result: dict) -> None:
        if self.store is not None:
            with obs_trace.span("store.put"):
                self.store.put(key, json.dumps(result))

    def _store_put_many(self, rows: "list[tuple[str, str]]") -> None:
        """Write ``(key, JSON text)`` rows in one store transaction."""
        if self.store is not None:
            with obs_trace.span("store.put"):
                self.store.put_many(rows)

    def _compute_through(
        self, key: str, compute, deadline: "Deadline | None" = None,
        encoded: bool = False,
    ) -> "tuple[dict | EncodedJSON, str]":
        """Store lookup → in-flight coalescing → compute-and-publish.

        ``encoded`` hands a store hit back as its stored JSON text (see
        :meth:`_store_get`); computed and coalesced results are always
        dicts. ``deadline`` is checked at the boundaries this path controls:
        before committing to a computation, while waiting on a coalesced
        future (the wait itself is bounded), and after the computation
        lands — so an overrunning request answers with the typed
        :class:`~repro.errors.EvaluationTimeout` instead of hanging.
        """
        cached = self._store_get(key, encoded)
        if cached is not None:
            return cached, SOURCE_STORE
        if deadline is not None:
            deadline.check("request")
        with self._lock:
            future = self._inflight.get(key)
            if future is None:
                future = Future()
                self._inflight[key] = future
                owner = True
            else:
                owner = False
        if not owner:
            self.stats.inc("coalesced")
            if deadline is None:
                return future.result(), SOURCE_COALESCED
            try:
                return (
                    future.result(timeout=deadline.remaining_s()),
                    SOURCE_COALESCED,
                )
            except FutureTimeoutError:
                raise EvaluationTimeout(
                    f"request exceeded its {deadline.budget_s:.3f}s deadline "
                    f"waiting on a coalesced computation",
                    budget_s=deadline.budget_s,
                    elapsed_s=deadline.elapsed_s(),
                ) from None
        try:
            result, source = self._claimed_compute(key, compute, deadline)
        except BaseException as error:
            future.set_exception(error)
            raise
        else:
            # Publish to same-process waiters before the final deadline
            # check: the computed result is real — waiters and the store
            # keep it even when *this* request must answer with a
            # timeout.
            future.set_result(result)
            if deadline is not None:
                deadline.check("request")
            return result, source
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    def _run_compute(self, compute) -> dict:
        if self.faults.active:
            self.faults.hit("dispatcher.compute")
        with obs_trace.span("dispatcher.compute"):
            return compute()

    def _claimed_compute(
        self, key: str, compute, deadline: "Deadline | None"
    ) -> "tuple[dict, str]":
        """Per-process in-flight owner path, claim-aware across workers.

        With a shared store, the exactly-one-compute guarantee must hold
        across *processes*, not just threads: win the store-level claim
        row and compute (claim → compute → publish → release), or poll
        the store while a peer worker holds the claim. A claim that
        expires without a published result (worker killed mid-claim)
        sends us back into the claim race, so a dead worker never wedges
        a key.
        """
        store = self.store
        if store is None:
            result = self._run_compute(compute)
            self.stats.inc("computed")
            return result, SOURCE_COMPUTED
        waited = False
        while True:
            acquired, swept = store.try_claim(
                key, self.claim_owner, self.claim_ttl_s
            )
            if swept:
                self.stats.inc("claims_expired")
            if acquired:
                self.stats.inc("claims")
                try:
                    # Re-check under the claim: a peer may have
                    # published between our pre-claim store miss and
                    # winning the claim (publishes happen claim-held,
                    # so this read is authoritative).
                    cached = self._store_get(key)
                    if cached is not None:
                        return cached, SOURCE_STORE
                    result = self._run_compute(compute)
                    self._store_put(key, result)
                    self.stats.inc("computed")
                    return result, SOURCE_COMPUTED
                finally:
                    store.release_claim(key, self.claim_owner)
            if not waited:
                waited = True
                self.stats.inc("claim_waits")
            peer_result = self._await_peer(key, deadline)
            if peer_result is not None:
                return peer_result, SOURCE_STORE

    def _await_peer(
        self, key: str, deadline: "Deadline | None"
    ) -> "dict | None":
        """Poll the shared store while a peer worker computes ``key``.

        Returns the published payload, or ``None`` when the peer's claim
        expired without one (killed mid-claim) — the caller then
        re-enters the claim race. ``peek`` keeps the polling loop
        stats-neutral; only the final successful read goes through
        :meth:`_store_get` and counts as a store hit.
        """
        store = self.store
        while True:
            if store.peek(key) is not None:
                result = self._store_get(key)
                if result is not None:
                    return result
            if not store.claim_active(key):
                # One last look: the peer may have published between our
                # peek and its release.
                return self._store_get(key)
            if deadline is not None:
                deadline.check("request")
            time.sleep(self.claim_poll_s)

    def _point_fab_location(self, point: EvaluateRequest):
        return (
            point.fab_location
            if point.fab_location is not None
            else self.fab_location
        )

    def _key_records(self, points) -> dict:
        """The records table that keys ``points``: a per-request overlay.

        A fresh dict of the shared parameter records (:attr:`_records`,
        never written after construction), the named workloads' texts
        and the text each point's design was given at parse
        (:attr:`~repro.service.schema.EvaluateRequest.design_text`), so
        a key renders neither again. Entries are checked by identity, as
        every ``records`` entry is, so an entry that is not the key's own
        record changes nothing.
        """
        records = {**self._records, **NAMED_WORKLOAD_TEXTS}
        for point in points:
            entry = point.design_text
            if entry is not None:
                records[id(entry[0])] = entry
        return records

    def _point_key(
        self, point: EvaluateRequest, remember: bool = False,
        records: "dict | None" = None,
    ) -> str:
        """``point``'s store key under the active tenant's namespace.

        ``records`` is the request's :meth:`_key_records` table (made for
        this point alone when not given).

        With ``remember``, the key of a request the schema remembered
        (:func:`~repro.service.schema.remembered`: the parse of a
        repeated ``/evaluate`` body) is kept in :attr:`_keys`, per
        tenant, and found again by the request's identity. The entry
        holds the backend the key was rendered with; a backend since
        replaced under the same name renders a fresh key. Like the
        engine's interned grid intensities, a kept key assumes the
        served parameter set's tables are not edited in place.
        """
        tenant = active_tenant()
        if remember:
            entry = self._keys.get((tenant, id(point)))
            if (
                entry is not None
                and entry[0] is point
                and entry[1] is get_backend(point.backend)
            ):
                return entry[2]
        key = namespace_key(
            evaluate_fingerprint(
                point.design,
                self.params,
                self._point_fab_location(point),
                point.workload,
                point.backend,
            ),
            tenant,
            records=(
                records if records is not None
                else self._key_records((point,))
            ),
        )
        if remember and remembered(point):
            if len(self._keys) >= _KEYS_MAX:
                self._keys.clear()
            self._keys[(tenant, id(point))] = (
                point, get_backend(point.backend), key
            )
        return key

    def _point_engine(self, shared: bool = False):
        """Context yielding the evaluator for one request's computed points.

        With a store, the store is the cross-request cache: a point seen
        by an earlier request is a store hit and never reaches the
        engine. The engine memo then only pays off within one request
        (one design swept over many fab locations), so it lives for the
        request (:meth:`~repro.engine.BatchEvaluator.scoped`) rather than
        filling the long-lived evaluator with entries no later request
        reads. Without a store, or for a ``shared`` caller, the
        long-lived memo is the only cache and is used directly.
        """
        if shared or self.store is None:
            return contextlib.nullcontext(self.evaluator)
        return self.evaluator.scoped()

    def _engine_point(
        self, point: EvaluateRequest, designs: "dict | None" = None
    ) -> EvalPoint:
        """``point`` as the engine's :class:`~repro.engine.EvalPoint`.

        params is pinned: the content key fingerprints ``self.params``,
        so the evaluation must use the same set even on a caller-supplied
        evaluator with different defaults. The default backend maps to
        ``backend=None``, which keeps the classic ``LifecycleReport``
        payload (bit-identical to ``CarbonModel.evaluate(...).to_dict()``);
        any explicit non-default backend answers with the uniform
        ``BackendReport`` payload.

        ``designs`` maps each design this request priced to its first
        object, by the text it was given at parse (or by value, for a
        point built in process): equal designs of separate points reach
        the engine as one object, so the request pass, keyed by design
        identity, prices them once.
        """
        design = point.design
        if designs is not None:
            entry = point.design_text
            design = designs.setdefault(
                entry[1] if entry is not None and entry[0] is design
                else design,
                design,
            )
        return EvalPoint(
            design=design,
            params=self.params,
            fab_location=self._point_fab_location(point),
            workload=point.workload,
            label=point.label,
            backend=None if point.backend == DEFAULT_BACKEND else point.backend,
        )

    def _price_points(
        self, points, deadline: "Deadline | None" = None, *,
        stream: bool = False, encoded: bool = False, shared: bool = False,
    ) -> "Iterator[dict]":
        """Price ``points`` in blocks → one entry per point, input order.

        Each block takes one store read of its new keys, one
        ``evaluate_many`` call over the misses and one store write. An
        enveloped request is a single block; a ``stream`` prices
        one-point blocks and yields each entry, with its ``index``, as
        soon as its point is priced and stored. A repeated point, in the
        same block or a later one, reuses the first occurrence's report
        and cache tag. With ``encoded`` a report is
        :class:`~repro.service.schema.EncodedJSON` text: the stored row
        of a hit, or the very text a computed report was stored as.
        ``shared`` computes through the long-lived evaluator even with a
        store (see :meth:`_point_engine`).

        A stream checks the deadline before each point, so it stops with
        a typed trailer and every entry already written stays valid; an
        enveloped request checks it before the engine call and after the
        store write.
        """
        results: "dict[str, dict | EncodedJSON]" = {}
        sources: "dict[str, str]" = {}
        designs: "dict[str | ChipDesign, ChipDesign]" = {}
        size = 1 if stream else max(1, len(points))
        publish = encoded or self.store is not None
        with self._point_engine(shared) as engine:
            for start in range(0, len(points), size):
                if stream and deadline is not None:
                    deadline.check("streamed request")
                block = points[start:start + size]
                records = self._key_records(block)
                keys = [
                    self._point_key(point, records=records)
                    for point in block
                ]
                # The first occurrence of each new key is looked up (and,
                # on a miss, evaluated); repeats reuse it.
                fresh: "dict[str, EvaluateRequest]" = {}
                for key, point in zip(keys, block):
                    if key not in results:
                        fresh.setdefault(key, point)
                if len(fresh) < len(keys):
                    self.stats.inc("deduplicated", len(keys) - len(fresh))
                misses = []
                unique = list(fresh)
                for key, cached in zip(
                    unique, self._store_get_many(unique, encoded)
                ):
                    if cached is None:
                        misses.append(key)
                    else:
                        results[key] = cached
                        sources[key] = SOURCE_STORE
                if misses:
                    if not stream and deadline is not None:
                        deadline.check("batch request")
                    reports = engine.evaluate_many(
                        [self._engine_point(fresh[key], designs) for key in misses]
                    )
                    rows = []
                    for key, report in zip(misses, reports):
                        result = report.to_dict()
                        if publish:
                            # Encoded once: the stored row and the
                            # response share the text.
                            text = json.dumps(result)
                            rows.append((key, text))
                            if encoded:
                                result = EncodedJSON(text)
                        results[key] = result
                        sources[key] = SOURCE_COMPUTED
                    self._store_put_many(rows)
                    self.stats.inc("computed", len(misses))
                    if not stream and deadline is not None:
                        # After publishing: the batch landed in the store
                        # either way; only this response turns into a
                        # typed timeout.
                        deadline.check("batch request")
                for index, (key, point) in enumerate(zip(keys, block), start):
                    entry = {
                        "label": point.label,
                        "cache": sources[key],
                        "report": results[key],
                    }
                    yield {"index": index, **entry} if stream else entry

    # -- the kind-generic entry points ---------------------------------------

    def run(
        self, wire: str, request, *,
        deadline: "Deadline | None" = None, encoded: bool = False,
    ) -> "tuple[object, str | None]":
        """Answer a parsed request of kind ``wire`` → (result, cache tag).

        Calls the kind's handler, ``Dispatcher.<wire>``, looked up by name
        in :data:`~repro.service.schema.STUDY_KINDS`. The tag is ``None``
        for kinds whose result carries none. ``encoded`` reaches only the
        handlers that can splice stored text.
        """
        kind = STUDY_KINDS[wire]
        handler = getattr(self, kind.wire)
        if kind.encoded:
            answer = handler(request, deadline=deadline, encoded=encoded)
        else:
            answer = handler(request, deadline=deadline)
        return answer if kind.cached else (answer, None)

    def stream(
        self, wire: str, request, *, deadline: "Deadline | None" = None
    ) -> "tuple[int, 'Iterator[dict]']":
        """Stream a parsed request of kind ``wire`` → (entry count,
        entry iterator), through ``Dispatcher.stream_<wire>``.

        Raises :class:`~repro.errors.ParameterError` for a kind that
        does not stream.
        """
        kind = streaming_kind(wire)
        return getattr(self, f"stream_{kind.wire}")(request, deadline=deadline)

    # -- request handlers ----------------------------------------------------

    @_instrumented("evaluate")
    def evaluate(
        self, request: EvaluateRequest, *,
        deadline: "Deadline | None" = None, encoded: bool = False,
    ) -> "tuple[dict | EncodedJSON, str]":
        """One point → (report, cache tag).

        The report is a dict, except that with ``encoded`` a store hit
        comes back as the stored :class:`~repro.service.schema.
        EncodedJSON` text — the server's ``/evaluate`` route splices it
        into the response envelope without decoding it.
        """
        self._begin(1)
        key = self._point_key(request, remember=True)

        def compute() -> dict:
            with self._point_engine() as engine:
                return engine.evaluate(self._engine_point(request)).to_dict()

        return self._compute_through(key, compute, deadline, encoded)

    @_instrumented("batch")
    def batch(
        self, request: BatchRequest, *,
        deadline: "Deadline | None" = None, encoded: bool = False,
    ) -> "list[dict]":
        """Deduplicated batch → one entry per input point, input order.

        Each entry's report is a dict, except that with ``encoded`` it is
        :class:`~repro.service.schema.EncodedJSON` text — the stored row
        of a hit, or the very text a computed report was stored as — for
        the server's envelope to splice in.
        """
        self._begin(len(request.points))
        return list(
            self._price_points(request.points, deadline, encoded=encoded)
        )

    def stream_batch(
        self, request: BatchRequest, *, deadline: "Deadline | None" = None
    ) -> "tuple[int, 'Iterator[dict]']":
        """Streaming batch: (point count, per-point entry iterator).

        Entries come back in input order, each yielded *as it finishes* —
        a store hit immediately, a computed point right after its engine
        call lands (and feeds the store, so a restarted server replays
        the stream from disk). The body is :meth:`batch`'s, in one-point
        blocks, so a streamed run and an enveloped run of the same
        request produce identical entries.
        """
        self._begin(len(request.points))
        return len(request.points), self._price_points(
            request.points, deadline, stream=True
        )

    def stream_sweep(
        self, request: SweepRequest, *, deadline: "Deadline | None" = None
    ) -> "tuple[int, 'Iterator[dict]']":
        """Streaming sweep: the expanded grid, streamed point by point."""
        points = self._sweep_points(request)
        self._begin(len(points))
        return len(points), self._price_points(points, deadline, stream=True)

    @_instrumented("sweep")
    def sweep(
        self, request: SweepRequest, *,
        deadline: "Deadline | None" = None, encoded: bool = False,
    ) -> "list[dict]":
        """Expand the grid server-side and run it as a batch.

        Admitted and counted here, once: the point body runs unmetered,
        so a sweep is never also recorded as a batch.
        """
        points = self._sweep_points(request)
        self._begin(len(points))
        return list(self._price_points(points, deadline, encoded=encoded))

    def _sweep_points(self, request: SweepRequest) -> "list[EvaluateRequest]":
        points = []
        for name, _, design in default_splits(
            request.design, request.integrations, (2,), self.params
        ):
            for location in request.fab_locations:
                label_location = (
                    location if location is not None else self.fab_location
                )
                points.append(
                    EvaluateRequest(
                        design=design,
                        workload=request.workload,
                        fab_location=location,
                        label=f"{name}@{label_location}",
                        backend=request.backend,
                    )
                )
        return points

    @_instrumented("montecarlo")
    def montecarlo(
        self, request: MonteCarloRequest, *, deadline: "Deadline | None" = None
    ) -> "tuple[dict, str]":
        """Monte-Carlo summary → (summary dict, cache tag)."""
        self._begin(request.samples)
        return self._montecarlo_through(request, deadline)

    def _montecarlo_through(
        self, request: MonteCarloRequest, deadline: "Deadline | None" = None
    ) -> "tuple[dict, str]":
        """The Monte-Carlo body (store → coalesce → compute), unmetered."""
        fab_location = (
            request.fab_location
            if request.fab_location is not None
            else self.fab_location
        )
        key = namespace_key(
            montecarlo_fingerprint(
                request.design, self.params, fab_location,
                request.workload, request.samples, request.seed,
                request.backend, request.return_samples,
            ),
            records=self._records,
        )

        def compute() -> dict:
            # Deferred: uncertainty pulls in numpy, which evaluate-only
            # deployments never need.
            from ..analysis.uncertainty import monte_carlo

            result = monte_carlo(
                request.design,
                workload=request.workload,
                params=self.params,
                fab_location=fab_location,
                samples=request.samples,
                seed=request.seed,
                evaluator=self.evaluator,
                backend=request.backend,
            )
            payload = {
                "design": request.design.name,
                "backend": request.backend,
                "workload": workload_to_value(request.workload),
                "seed": request.seed,
                **result.to_payload(),
            }
            if request.return_samples:
                # The full draw distribution, in draw order. JSON floats
                # round-trip exactly (repr shortest-float), so a stored
                # payload serves the same bits a fresh run would.
                payload["samples_kg"] = list(result.samples_kg)
            return payload

        return self._compute_through(key, compute, deadline)

    @_instrumented("tornado")
    def tornado(
        self, request: TornadoRequest, *, deadline: "Deadline | None" = None
    ) -> "tuple[dict, str]":
        """One-at-a-time sensitivity study → (payload, cache tag).

        Swings every factor of the chosen backend's *own* declarative
        factor set to its low/high extreme through the shared engine.
        The store key embeds the factor-set fingerprint (a changed range
        or distribution must never serve a stale swing table).
        """
        fab_location = (
            request.fab_location
            if request.fab_location is not None
            else self.fab_location
        )
        factor_set = resolve_backend(request.backend).factor_set(
            request.design, self.params
        )
        self._begin(2 * len(factor_set) + 1)
        key = namespace_key((
            "tornado",
            evaluate_fingerprint(
                request.design, self.params, fab_location,
                request.workload, request.backend,
            ),
            factor_set.fingerprint(),
        ), records=self._records)

        def compute() -> dict:
            # Deferred: sensitivity pulls in the uncertainty layer, which
            # evaluate-only deployments never need.
            from ..analysis.sensitivity import tornado

            results = tornado(
                request.design,
                workload=request.workload,
                params=self.params,
                fab_location=fab_location,
                evaluator=self.evaluator,
                backend=request.backend,
            )
            return {
                "design": request.design.name,
                "backend": request.backend,
                "workload": workload_to_value(request.workload),
                "base_kg": results[0].base_kg if results else None,
                "factors": [entry.to_dict() for entry in results],
            }

        return self._compute_through(key, compute, deadline)

    @_instrumented("compare")
    def compare(
        self, request: CompareRequest, *, deadline: "Deadline | None" = None
    ) -> dict:
        """One design fanned across backends, server-side.

        The point reports come from one deduplicated engine batch (the
        shared resolve stage runs once, each backend prices the same
        resolution); with ``draws > 0`` each backend's entry additionally
        carries a Monte-Carlo band drawn from *that backend's own*
        factor set — every sub-result store-keyed exactly like the
        standalone ``/evaluate`` and ``/montecarlo`` routes, so a
        compare never recomputes what a previous request already paid
        for (and vice versa).
        """
        names = (
            list(request.backends)
            if request.backends is not None
            else list(backend_names())
        )
        self._begin(len(names) + len(names) * request.draws)
        entries = list(self._price_points([
            EvaluateRequest(
                design=request.design,
                workload=request.workload,
                fab_location=request.fab_location,
                label=name,
                backend=name,
            )
            for name in names
        ], deadline, shared=True))
        rows = []
        for name, entry in zip(names, entries):
            row = {
                "backend": name,
                "label": resolve_backend(name).label,
                "cache": entry["cache"],
                "report": entry["report"],
            }
            if request.draws:
                summary, source = self._montecarlo_through(
                    MonteCarloRequest(
                        design=request.design,
                        workload=request.workload,
                        fab_location=request.fab_location,
                        samples=request.draws,
                        seed=request.seed,
                        backend=name,
                    ),
                    deadline,
                )
                row["uncertainty"] = summary
                row["uncertainty_cache"] = source
            rows.append(row)
        return {
            "design": request.design.name,
            "workload": workload_to_value(request.workload),
            "draws": request.draws,
            "seed": request.seed,
            "backends": rows,
        }

    # -- optimize ------------------------------------------------------------

    def _optimize_axes(self, request: OptimizeRequest) -> tuple:
        """The request's grid axes, defaults resolved (fab locations
        default to the server's), checked against the expansion bound
        before the grid expands."""
        axes = grid_axes(
            request.integrations, request.die_counts,
            request.wafer_diameters_mm,
            (self.fab_location,) if request.fab_locations is None
            else request.fab_locations,
        )
        bound = expansion_bound(axes)
        if bound > MAX_GRID_POINTS:
            raise SchemaError(
                f"optimize grid may expand to {bound} points, past the "
                f"{MAX_GRID_POINTS}-point limit; narrow an axis"
            )
        return axes

    def _optimize_search(self, request: OptimizeRequest, axes: tuple):
        from ..analysis.optimizer import DEFAULT_CHUNK, ParetoSearch

        integrations, die_counts, wafers, locations = axes
        return ParetoSearch.from_axes(
            request.design,
            params=self.params,
            workload=request.workload,
            integrations=integrations,
            die_counts=die_counts,
            wafer_diameters_mm=wafers,
            fab_locations=locations,
            chunk=(
                request.chunk if request.chunk is not None else DEFAULT_CHUNK
            ),
            evaluator=self.evaluator,
        )

    def _optimize_key(self, request: OptimizeRequest, axes: tuple) -> str:
        """Content key over everything the search can observe: the full
        parameter set, the reference design, the workload, the resolved
        axes and the sampling/chunking knobs.

        Unlike the point routes there is no per-stage fingerprint to
        lean on — the grid prices *derived* designs across every
        integration spec — so the key pins the whole parameter set.
        """
        from ..config.loader import parameters_to_dict
        from ..io.designs import design_to_dict

        integrations, die_counts, wafers, locations = axes
        return namespace_key((
            "optimize",
            SCHEMA_VERSION,
            parameters_to_dict(self.params),
            design_to_dict(request.design),
            workload_to_value(request.workload),
            integrations,
            die_counts,
            wafers,
            locations,
            request.max_configs,
            request.chunk,
            request.seed,
        ))

    def _optimize_snapshots(
        self, request: OptimizeRequest, axes: tuple,
        deadline: "Deadline | None" = None,
    ) -> "tuple[int, Iterator[dict]]":
        """The one optimize body: (chunk count, per-chunk snapshot
        iterator) of an admitted search.

        The admission rule, stated once: a computed search, enveloped or
        streamed, is admitted for its full grid point count (and counts
        those ``points``) before any chunk runs. The enveloped
        :meth:`optimize` pays one more point up front for its store
        lookup, so a store hit costs that point alone.

        Each snapshot is one evaluated chunk's running front; the last
        one's ``front`` is the full sorted front. ``deadline`` is checked
        before each chunk, so a stream stops with a typed trailer and
        every snapshot already written stays valid.
        """
        search = self._optimize_search(request, axes)
        points = len(search.grid.points)
        if request.max_configs is not None:
            points = min(points, request.max_configs)
        self._admit(points)
        self.stats.inc("points", points)

        def snapshots() -> "Iterator[dict]":
            chunks = search.stream(
                max_configs=request.max_configs, seed=request.seed
            )
            while True:
                if deadline is not None:
                    deadline.check("streamed request")
                try:
                    yield next(chunks)
                except StopIteration:
                    return

        return -(-points // search.chunk), snapshots()

    @_instrumented("optimize")
    def optimize(
        self, request: OptimizeRequest, *, deadline: "Deadline | None" = None
    ) -> "tuple[dict, str]":
        """Vectorized Pareto search → (front payload, cache tag).

        ``compute`` drains :meth:`_optimize_snapshots`, so the grid only
        expands on a store miss. The request's deadline stays with
        :meth:`_compute_through`: a search that finishes is published
        even when this request must answer with a timeout.
        """
        self._admit(1)
        self.stats.inc("requests")
        axes = self._optimize_axes(request)

        def compute() -> dict:
            return front_payload(
                request, self._optimize_snapshots(request, axes)[1]
            )

        return self._compute_through(
            self._optimize_key(request, axes), compute, deadline
        )

    def stream_optimize(
        self, request: OptimizeRequest, *, deadline: "Deadline | None" = None
    ) -> "tuple[int, 'Iterator[dict]']":
        """Streaming search: :meth:`_optimize_snapshots`, as NDJSON.

        The stream's framing total counts *chunks* (each snapshot carries
        its own cumulative ``evaluated`` point count). Streams always
        compute fresh: front snapshots are incremental state, not
        per-point results the store could replay.
        """
        total, snapshots = self._optimize_snapshots(
            request, self._optimize_axes(request), deadline
        )
        self.stats.inc("requests")
        return total, snapshots

    def stats_dict(self) -> dict:
        """JSON-ready dispatcher + engine + store statistics."""
        data = {
            "dispatcher": self.stats.as_dict(),
            "engine": self.evaluator.stats.as_dict(),
        }
        if self.store is not None:
            data["store"] = self.store.stats()
        tenants = self.usage.all_totals()
        if tenants:
            data["tenants"] = tenants
        return data
