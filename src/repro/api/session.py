"""The one front door: :class:`Session`.

A session binds the declarative :class:`~repro.api.spec.StudySpec`
vocabulary to an executor — an in-process engine or a remote carbon3d
server — behind one API::

    from repro.api import Session

    with Session() as session:                     # local engine
        report = session.evaluate(design)
        band = session.monte_carlo(design, samples=500, backend="act")
        handle = session.submit(StudySpec.sweep(reference))
        for point in handle.partial():             # as each finishes
            print(point.summary())

    remote = Session(executor="service",
                     url="http://127.0.0.1:8787", token="...")
    remote.evaluate(design)                        # same studies, same
                                                   # payloads, over HTTP

Location transparency is literal: both executors consume the same wire
payload, validated by the same schema module, evaluated by the same
dispatcher/engine code — so every study kind returns **bit-identical**
payloads locally and through a server (parity-tested).

``Session.<name>`` exists for every study kind: generated from the
kind's :data:`~repro.service.schema.STUDY_KINDS` entry, it takes the
arguments of ``StudySpec.<name>`` and runs that spec. A payload dict or
spec of any kind, one added to the table at run time too, runs through
:meth:`Session.run` and :meth:`Session.submit`; its ``type`` is checked
by :func:`repro.service.schema.payload_kind`, as the server checks it.

Local sessions also expose the native-report path the in-process study
modules build on (:meth:`report`, the shared :attr:`evaluator`); these
need live engine objects and therefore raise on a service session.
"""

from __future__ import annotations

import threading
import time

from ..config.parameters import ParameterSet
from ..errors import ParameterError
from ..obs import trace as obs_trace
from ..resilience.deadline import BUDGET_MS_RULE, Deadline, valid_budget_ms
from ..service import schema
from ..service.client import ServiceClient
from ..service.dispatcher import Dispatcher, front_payload
from .executors import LocalExecutor, ServiceExecutor
from .handle import StudyHandle
from .results import Result, ResultSet
from .spec import StudySpec, fill_default_backend

#: The CLI/server default endpoint.
DEFAULT_URL = "http://127.0.0.1:8787"


class Session:
    """Location-transparent front door for every carbon study.

    ``executor="local"`` (default) owns a
    :class:`~repro.engine.BatchEvaluator` behind a
    :class:`~repro.service.dispatcher.Dispatcher` (pass ``store_path=``
    for a persistent result store, or ``evaluator=`` to share an
    existing engine's caches). ``executor="service"`` speaks to a running
    ``carbon3d serve`` at ``url`` (``token=`` for authenticated
    servers; ``timeout``/``retries`` tune the HTTP client).

    ``backend=`` sets a session-wide default carbon backend applied to
    any study that does not name its own.

    ``deadline_ms=`` gives every study a cooperative deadline budget —
    locally a :class:`~repro.resilience.Deadline` threaded through the
    dispatcher, remotely the ``X-Carbon3D-Deadline-Ms`` header — with
    overruns raising the typed
    :class:`~repro.errors.EvaluationTimeout` (HTTP answers carry it as
    a 504 payload). ``faults=`` activates a deterministic
    :class:`~repro.resilience.FaultPlan` on a *local* session's engine,
    dispatcher and store (service sessions inject server-side via
    ``carbon3d serve --fault-plan``).
    """

    def __init__(
        self,
        executor: str = "local",
        url: "str | None" = None,
        *,
        token: "str | None" = None,
        backend: "str | None" = None,
        params: "ParameterSet | None" = None,
        fab_location: "str | float" = "taiwan",
        store_path: "str | None" = None,
        max_entries: int = 100_000,
        timeout: float = 60.0,
        retries: int = 2,
        evaluator=None,
        client: "ServiceClient | None" = None,
        faults=None,
        deadline_ms: "float | None" = None,
    ) -> None:
        self.backend = backend
        self.executor_name = executor
        self._executor: "LocalExecutor | ServiceExecutor | None" = None
        self._executor_lock = threading.Lock()
        if deadline_ms is not None and not valid_budget_ms(deadline_ms):
            raise ParameterError(
                f"deadline_ms must be {BUDGET_MS_RULE}, got {deadline_ms}"
            )
        self.deadline_ms = deadline_ms
        if executor == "local":
            if client is not None or url is not None or token is not None:
                raise ParameterError(
                    "url/token/client configure a service session; pass "
                    "executor=\"service\" to use them"
                )
            from ..resilience.faults import resolve_injector

            self._faults = resolve_injector(faults)
            if evaluator is None:
                from ..engine import BatchEvaluator

                evaluator = BatchEvaluator(
                    params=params,
                    fab_location=fab_location,
                    faults=self._faults,
                )
            elif params is None:
                # A shared engine brings its own parameter set; the
                # dispatcher must key/evaluate with the same one.
                params = evaluator.params
            self._evaluator = evaluator
            self._params = params
            self._fab_location = fab_location
            self._store_path = store_path
            self._max_entries = max_entries
        elif executor == "service":
            if evaluator is not None or store_path is not None:
                raise ParameterError(
                    "evaluator/store_path configure a local session; pass "
                    "executor=\"local\" to use them"
                )
            if faults is not None:
                raise ParameterError(
                    "faults configure a local session's engine; inject "
                    "server-side with carbon3d serve --fault-plan (or the "
                    "CARBON3D_FAULT_PLAN environment variable)"
                )
            if client is not None and (url is not None or token is not None):
                raise ParameterError(
                    "pass either a ready client or url/token, not both — "
                    "an explicit client keeps its own base_url and token"
                )
            if client is None:
                client = ServiceClient(
                    url if url is not None else DEFAULT_URL,
                    timeout=timeout,
                    token=token,
                    retries=retries,
                    deadline_ms=deadline_ms,
                )
            self._executor = ServiceExecutor(client)
        else:
            raise ParameterError(
                f"executor must be \"local\" or \"service\", got "
                f"{executor!r}"
            )

    # -- plumbing ------------------------------------------------------------

    @property
    def is_local(self) -> bool:
        return self.executor_name == "local"

    def _exec(self) -> "LocalExecutor | ServiceExecutor":
        """The executor, building the local dispatcher lazily.

        Laziness matters: native-report callers (the Fig. 5 / Table 5
        studies) may hand over evaluators the dispatcher would refuse
        (e.g. with an efficiency plugin, which no session-stable content
        key can capture) — they never pay for, or trip over, a wire-path
        dispatcher they don't use.
        """
        if self._executor is None:
            from ..service.store import ResultStore

            # submit() worker threads race here; the lock keeps one
            # dispatcher (and one store handle on the file) per session.
            with self._executor_lock:
                if self._executor is None:
                    store = (
                        ResultStore(
                            self._store_path,
                            max_entries=self._max_entries,
                            faults=self._faults,
                        )
                        if self._store_path is not None
                        else None
                    )
                    self._executor = LocalExecutor(Dispatcher(
                        params=self._params,
                        fab_location=self._fab_location,
                        store=store,
                        evaluator=self._evaluator,
                        faults=self._faults,
                    ))
        return self._executor

    def _deadline(self):
        """A fresh per-study Deadline, or None (service: client header)."""
        if self.deadline_ms is None or not self.is_local:
            return None
        return Deadline.after_ms(self.deadline_ms)

    @property
    def dispatcher(self) -> Dispatcher:
        """The local dispatcher (raises on a service session)."""
        self._require_local("dispatcher")
        return self._exec().dispatcher

    @property
    def evaluator(self):
        """The local engine (raises on a service session)."""
        self._require_local("evaluator")
        return self._evaluator

    @property
    def client(self) -> ServiceClient:
        """The HTTP client (raises on a local session)."""
        if self.is_local:
            raise ParameterError(
                "a local session has no HTTP client; pass "
                "executor=\"service\""
            )
        return self._executor.client

    def _require_local(self, what: str) -> None:
        if not self.is_local:
            raise ParameterError(
                f"{what} needs live engine objects, which only a local "
                f"session holds; evaluate through the study methods (or "
                f"open Session(executor=\"local\"))"
            )

    def stats(self) -> dict:
        """Dispatcher/engine/store counters + metrics snapshot, any executor.

        The location-transparent twin of ``GET /stats``: a local session
        reads its dispatcher and metrics registry directly; a service
        session asks the server. Both shapes share the ``dispatcher`` /
        ``engine`` / ``metrics`` keys (plus ``store`` when one is
        attached; servers add their own ``service`` block).
        """
        if self.is_local:
            data = self._exec().dispatcher.stats_dict()
            data["metrics"] = self._exec().dispatcher.metrics.snapshot()
            return data
        return self.client.stats()

    def usage(self) -> dict:
        """Per-tenant usage totals, any executor.

        The location-transparent twin of ``GET /usage``. A local session
        runs as the anonymous tenant outside any auth boundary, so its
        own consumption comes straight from the dispatch counters; the
        ``tenants`` view surfaces whatever the attached store's ledger
        has aggregated (e.g. a fleet writing through the same store
        file). A service session asks the server, which scopes the
        answer to the token's tenant.
        """
        if self.is_local:
            from ..tenancy import USAGE_FIELDS, ANONYMOUS_TENANT

            dispatcher = self._exec().dispatcher
            stats = dispatcher.stats
            own = {
                name: int(getattr(stats, name, 0))
                if name in stats.FIELDS else 0
                for name in USAGE_FIELDS
            }
            return {
                "tenant": ANONYMOUS_TENANT,
                "usage": own,
                "tenants": dispatcher.usage.all_totals(),
            }
        return self.client.usage()

    def close(self) -> None:
        """Release the executor's resources (the store handle, if any)."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the study API -------------------------------------------------------

    def run(self, study: "StudySpec | dict"):
        """Run any study synchronously → :class:`Result`/:class:`ResultSet`.

        Accepts a :class:`StudySpec` or a raw wire payload dict.
        """
        kind, payload = self._payload(study)
        # `stream` only shapes the transport (NDJSON vs envelope); the
        # synchronous path needs the envelope — submit() is the one that
        # streams. Leaving it set would have a service session receive
        # NDJSON it cannot parse as one JSON body. A malformed flag stays
        # for the validator.
        if kind.streams and payload.get("stream") is True:
            del payload["stream"]
        # Under an active trace this degrades to a child span; otherwise
        # it roots one, so service sessions send X-Carbon3D-Trace-Id and
        # local spans land in the collector under one correlatable id.
        with obs_trace.trace(f"session.{kind.name}", kind=kind.name):
            result, cache = self._exec().run(
                payload, deadline=self._deadline()
            )
        if kind.result == "points":
            return ResultSet.from_entries(kind.name, result)
        return Result(kind=kind.name, payload=result, cache=cache)

    def submit(self, study: "StudySpec | dict") -> StudyHandle:
        """Run any study asynchronously → :class:`StudyHandle`.

        Streaming kinds stream: for batch/sweep the handle's
        ``partial()`` yields each point as the executor finishes it (HTTP
        sessions consume the service's NDJSON stream; local sessions the
        dispatcher's incremental iterator), for optimize one running
        Pareto-front snapshot per evaluated chunk.
        """
        kind, payload = self._payload(study)
        handle = StudyHandle(kind.name)
        thread = threading.Thread(
            target=self._run_study,
            args=(kind, payload, handle),
            name=f"carbon3d-{kind.name}",
            daemon=True,
        )
        thread.start()
        return handle

    def _run_study(
        self, kind: "schema.StudyKind", payload: dict, handle: StudyHandle
    ) -> None:
        # The worker thread roots the study's trace: the handle exposes
        # its id immediately, so timing() can correlate spans (and a
        # service session's X-Carbon3D-Trace-Id header) while running.
        started = time.perf_counter()
        try:
            with obs_trace.trace(f"study.{kind.name}", kind=kind.name) as root:
                handle.trace_id = root.trace_id
                if kind.streams:
                    result = self._collect_stream(kind, payload, handle)
                else:
                    result = self.run(payload)
            handle.duration_s = time.perf_counter() - started
            handle._finish(result)
        except BaseException as error:  # noqa: BLE001 — relayed to .result()
            handle.duration_s = time.perf_counter() - started
            handle._fail(error)

    def _collect_stream(
        self, kind: "schema.StudyKind", payload: dict, handle: StudyHandle
    ):
        """Push each streamed entry to ``handle``; return the whole result.

        Point entries assemble into a :class:`ResultSet`; front snapshots
        into the final optimize :class:`Result`, the streamed twin of the
        enveloped one (same keys, same front bits).
        """
        stream = self._exec().stream(payload, deadline=self._deadline())
        if kind.result == "points":
            entries = []
            for entry in stream:
                entries.append(entry)
                handle._push(Result(
                    kind="point",
                    payload=entry["report"],
                    cache=entry.get("cache"),
                    label=entry.get("label"),
                    index=entry.get("index"),
                ))
            return ResultSet.from_entries(kind.name, entries)

        def pushed():
            for snapshot in stream:
                handle._push(Result(
                    kind="front", payload=snapshot,
                    index=snapshot.get("chunk"),
                ))
                yield snapshot

        return Result(
            kind=kind.name,
            payload=front_payload(schema.parse_request(payload), pushed()),
        )

    def _payload(self, study) -> "tuple[schema.StudyKind, dict]":
        """The study's table entry and wire payload, with the session's
        default backend filled in.

        A payload dict goes on as given (``schema`` defaults to the
        current version): the executor's validator, the server's own,
        judges it.
        """
        if isinstance(study, StudySpec):
            kind, payload = study.info, study.to_payload()
        elif isinstance(study, dict):
            payload = {"schema": schema.SCHEMA_VERSION, **study}
            kind = schema.payload_kind(payload)
        else:
            raise ParameterError(
                f"a study must be a StudySpec or a wire payload dict, got "
                f"{type(study).__name__}"
            )
        return kind, fill_default_backend(kind, payload, self.backend)

    # -- native-report path (local sessions; the studies' building block) ----

    def report(
        self,
        design,
        workload=None,
        params: "ParameterSet | None" = None,
        fab_location=None,
    ):
        """A native :class:`~repro.core.report.LifecycleReport` (local only).

        The in-process twin of :meth:`evaluate` for callers that need
        live report objects; memoized through the session's shared
        engine.
        """
        self._require_local("report()")
        return self.evaluator.report(
            design, workload=workload, params=params,
            fab_location=fab_location,
        )


def _study_method(kind: "schema.StudyKind"):
    """``Session.<name>``: run the spec ``StudySpec.<name>`` builds from
    the same arguments → :class:`Result`/:class:`ResultSet`."""

    def run(session: Session, arguments: dict):
        return session.run(getattr(StudySpec, kind.name)(**arguments))

    return kind.function(
        f"Session.{kind.name}", run,
        f"Run a {kind.name} study: {kind.summary}.",
    )


for _kind in schema.STUDY_KINDS.values():
    setattr(Session, _kind.name, _study_method(_kind))
del _kind
