"""A small stdlib client for the carbon evaluation service.

:class:`ServiceClient` speaks the versioned JSON schema over persistent
``http.client`` keep-alive connections — no third-party dependencies —
and unwraps the response envelopes: success methods return the envelope
dict (``result`` plus the ``cache`` provenance tag); service-side
failures raise a typed :class:`ServiceError` carrying the error payload
and HTTP status.

    client = ServiceClient("http://127.0.0.1:8787")
    envelope = client.evaluate(design)          # ChipDesign or JSON dict
    report = envelope["result"]                 # CarbonModel-identical
    print(envelope["cache"], report["total_kg"])

**Connection reuse.** Requests ride a small pool of keep-alive
connections instead of a fresh TCP handshake per call — the warm-path
latency win the load harness measures. A pooled socket the server
already closed (idle timeout, worker restart) surfaces as a stale-socket
error on *reuse*; the client transparently discards it and repeats the
attempt on a fresh connection — free, because the request never reached
a live server — bounded by the pool draining to fresh connections, whose
failures are real and propagate.

Transient transport failures are retried with bounded backoff:
idempotent ``GET`` requests (``/healthz``, ``/stats``) retry on any
transport error, and ``POST`` requests retry only while the connection
is *refused* — the server-warming-up case, where the request never left
this process so a resend cannot double-evaluate — or when the server
*shed* the request with 503 (load shedding is an explicit "not
processed, come back later", so a resend after the advertised
``Retry-After`` cannot double-evaluate either). A 429 quota rejection
also waits out ``Retry-After`` and retries, but is **breaker-neutral**:
it reports one tenant's budget, not service health, so it never opens
the circuit. Other HTTP error *responses* (400/401/...) are never
retried. ``token=...`` attaches a registry-issued API token (``carbon3d
tokens issue``) as the ``X-Carbon3D-Token`` header.

A :class:`~repro.resilience.CircuitBreaker` sits over the retry loop:
consecutive transport failures (or 503 sheds) open it, after which
requests fail fast with
:class:`~repro.resilience.breaker.CircuitOpenError` — no socket touched,
no retry pile-on against a struggling server — until the cool-down
(extended by any server ``Retry-After``) admits a probe.
``deadline_ms=...`` attaches the ``X-Carbon3D-Deadline-Ms`` budget
header to every request; overruns come back as typed 504 payloads.

:meth:`stream_batch` / :meth:`stream_sweep` consume the server's NDJSON
point streams (``"stream": true``), yielding each point entry as the
server finishes it; :meth:`stream_optimize` consumes the Pareto
search's per-chunk front snapshots the same way.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse

from ..errors import CarbonModelError
from ..obs import trace as obs_trace
from ..resilience.breaker import CircuitBreaker
from .schema import DEADLINE_HEADER, DEFAULT_SEED, SCHEMA_VERSION


class ServiceError(CarbonModelError):
    """The service answered with an error envelope (or unparseable bytes)."""

    def __init__(
        self,
        message: str,
        payload: "dict | None" = None,
        status: "int | None" = None,
        retry_after_s: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.payload = payload if payload is not None else {}
        self.status = status
        #: The server's Retry-After request (503/429 answers), seconds.
        self.retry_after_s = retry_after_s

    @property
    def error_type(self) -> "str | None":
        return self.payload.get("type")


def _specs():
    """:class:`~repro.api.spec.StudySpec`, which builds every per-kind
    payload (imported late: the api package imports this module)."""
    from ..api.spec import StudySpec

    return StudySpec


def _error_from_envelope(
    envelope: dict,
    status: "int | None" = None,
    retry_after_s: "float | None" = None,
) -> ServiceError:
    detail = envelope.get("error", {})
    if retry_after_s is None:
        retry_after_s = detail.get("retry_after_s")
    return ServiceError(
        f"{detail.get('type', 'ServiceError')}: "
        f"{detail.get('message', 'service error')}",
        payload=detail,
        status=status,
        retry_after_s=retry_after_s,
    )


def _parse_retry_after(headers) -> "float | None":
    """The ``Retry-After`` header in seconds (delta form only)."""
    raw = headers.get("Retry-After") if headers is not None else None
    if raw is None:
        return None
    try:
        return max(0.0, float(raw))
    except ValueError:
        return None


#: Errors a server-closed keep-alive socket produces on reuse: the
#: request never reached a live server, so repeating it on a fresh
#: connection is free (no double-evaluate risk, even for POSTs).
STALE_SOCKET_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class _KeepAliveConnection(http.client.HTTPConnection):
    """HTTPConnection that disables Nagle on connect.

    Requests on a warm connection are latency-bound, not
    bandwidth-bound: never let Nagle hold a small POST body back for
    the server's delayed ACK (~40ms per exchange). Connection stays
    lazy — the socket appears on first use, like the base class.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _KeepAliveHTTPSConnection(http.client.HTTPSConnection):
    def connect(self) -> None:  # pragma: no cover - no TLS in tests
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _ConnectionPool:
    """A small LIFO pool of keep-alive connections to one endpoint.

    ``acquire`` hands back the most-recently-released connection (the
    one least likely to have idled out) with a ``reused`` flag, or
    builds a fresh one when the pool is empty — there is no cap on
    concurrent checkouts, only on how many idle connections ``release``
    retains. Thread-safe; each checked-out connection belongs to exactly
    one in-flight request.
    """

    def __init__(self, host: str, port: int, timeout: float,
                 scheme: str = "http", size: int = 4) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.scheme = scheme
        self.size = size
        self._idle: "list[http.client.HTTPConnection]" = []
        self._lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        cls = (
            _KeepAliveHTTPSConnection
            if self.scheme == "https"
            else _KeepAliveConnection
        )
        return cls(self.host, self.port, timeout=self.timeout)

    def acquire(self) -> "tuple[http.client.HTTPConnection, bool]":
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return self._connect(), False

    def release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < self.size:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class _PooledResponse:
    """An ``http.client`` response that returns its connection on close.

    Read-through proxy for the streaming surface the client uses
    (``read``/``readline``/iteration/``headers``/``status``). A response
    consumed to the end releases its keep-alive connection back to the
    pool; one abandoned mid-stream (or marked ``Connection: close``)
    discards it — a half-read socket can never serve the next request.
    """

    def __init__(self, raw, conn, pool: _ConnectionPool) -> None:
        self._raw = raw
        self._conn = conn
        self._pool = pool

    @property
    def headers(self):
        return self._raw.headers

    @property
    def status(self) -> int:
        return self._raw.status

    def read(self, amt: "int | None" = None) -> bytes:
        return self._raw.read(amt)

    def readline(self) -> bytes:
        return self._raw.readline()

    def __iter__(self):
        return iter(self._raw)

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is None:
            return
        finished = self._raw.isclosed()
        self._raw.close()
        if finished and not getattr(self._raw, "will_close", True):
            self._pool.release(conn)
        else:
            conn.close()

    def __enter__(self) -> "_PooledResponse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServiceClient:
    """Synchronous HTTP client for one service endpoint.

    ``retries``/``backoff_s`` bound the transient-failure retry loop:
    up to ``retries`` resends, sleeping ``backoff_s * 2**attempt``
    (capped at :attr:`MAX_BACKOFF_S`) between attempts; ``backoff_s <= 0``
    retries without sleeping (tests). A 503 shed waits at least the
    server's ``Retry-After`` (capped at :attr:`MAX_RETRY_AFTER_S`).
    ``breaker`` is the circuit breaker over the whole transport path —
    pass your own to share one across clients or tune its thresholds.
    """

    #: Ceiling on a single backoff sleep, whatever the retry count.
    MAX_BACKOFF_S = 2.0
    #: Ceiling on honoring a server's Retry-After inside the retry loop
    #: (a longer back-off surfaces to the caller instead of blocking it).
    MAX_RETRY_AFTER_S = 5.0

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8787",
        timeout: float = 60.0,
        token: "str | None" = None,
        retries: int = 2,
        backoff_s: float = 0.1,
        deadline_ms: "float | None" = None,
        breaker: "CircuitBreaker | None" = None,
        pool_size: int = 4,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
        if isinstance(retries, bool) or not isinstance(retries, int):
            raise ValueError(f"retries must be an integer, got {retries!r}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be > 0 milliseconds, got {deadline_ms}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = token
        self.retries = retries
        # <= 0 means "retry immediately, never sleep" — a deliberate
        # clamp, not an error (fault-injection tests rely on it).
        self.backoff_s = max(0.0, backoff_s)
        self.deadline_ms = deadline_ms
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        parsed = urllib.parse.urlsplit(self.base_url)
        self.pool = _ConnectionPool(
            parsed.hostname or "127.0.0.1",
            parsed.port or (443 if parsed.scheme == "https" else 80),
            timeout=self.timeout,
            scheme=parsed.scheme or "http",
            size=pool_size,
        )

    def close(self) -> None:
        """Drop the idle keep-alive connections (in-flight ones finish)."""
        self.pool.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport -----------------------------------------------------------

    def _build_headers(self, payload: "dict | None",
                       accept: str) -> "tuple[bytes | None, dict]":
        body = None
        headers = {"Accept": accept}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.token is not None:
            headers["X-Carbon3D-Token"] = self.token
        if self.deadline_ms is not None:
            headers[DEADLINE_HEADER] = repr(self.deadline_ms)
        trace_id = obs_trace.current_trace_id()
        if trace_id is not None:
            # Correlate this request with the caller's active trace; the
            # server adopts the id for its own spans and echoes it in
            # the response envelope.
            headers[obs_trace.TRACE_HEADER] = trace_id
        return body, headers

    def _retryable(self, method: str, error: Exception) -> bool:
        """GETs are idempotent; a refused POST never reached the server."""
        if method == "GET":
            return True
        return isinstance(error, ConnectionRefusedError)

    def _send(self, conn, method: str, path: str,
              body: "bytes | None", headers: dict):
        """One request/response exchange on ``conn`` (the test seam)."""
        conn.request(method, path, body=body, headers=headers)
        return conn.getresponse()

    def _roundtrip(self, method: str, path: str, body: "bytes | None",
                   headers: dict) -> _PooledResponse:
        """Exchange over a pooled connection, shedding stale sockets.

        A *reused* connection failing with a stale-socket error means
        the server closed it while idle — the request never reached a
        live server, so repeat on the next connection without consuming
        a retry attempt. The pool eventually hands out a fresh
        connection, whose failures are real and propagate.
        """
        while True:
            conn, reused = self.pool.acquire()
            try:
                response = self._send(conn, method, path, body, headers)
            except STALE_SOCKET_ERRORS:
                conn.close()
                if reused:
                    continue
                raise
            except BaseException:
                conn.close()
                raise
            return _PooledResponse(response, conn, self.pool)

    def _sleep_before_retry(
        self, attempt: int, retry_after_s: "float | None" = None
    ) -> None:
        delay = min(self.backoff_s * 2 ** attempt, self.MAX_BACKOFF_S)
        if retry_after_s is not None:
            delay = max(delay, min(retry_after_s, self.MAX_RETRY_AFTER_S))
        if delay > 0:
            time.sleep(delay)

    def _open(self, method: str, path: str, payload: "dict | None" = None,
              accept: str = "application/json"):
        """Open the HTTP response, retrying transient transport failures.

        Returns the live response object (the caller reads/closes it);
        HTTP error responses raise a typed :class:`ServiceError` without
        any retry — except 503 sheds and 429 quota rejections, which
        were never processed and retry after the server's
        ``Retry-After``. The circuit breaker is consulted before every
        attempt and fed the outcome of each: transport failures and 503s
        count against it, 429s do not (quota is per-tenant policy, not
        service health).
        """
        self.breaker.check()
        body, headers = self._build_headers(payload, accept)
        attempt = 0
        while True:
            try:
                with obs_trace.span(
                    f"http.request {path}", method=method, attempt=attempt
                ):
                    response = self._roundtrip(method, path, body, headers)
            except (OSError, http.client.HTTPException) as error:
                self.breaker.record_failure()
                if attempt >= self.retries or not self._retryable(
                    method, error
                ):
                    raise ServiceError(
                        f"cannot reach {self.base_url}: {error}"
                    ) from None
                self._sleep_before_retry(attempt)
                attempt += 1
                self.breaker.check()
                continue
            if response.status >= 400:
                status = response.status
                retry_after_s = _parse_retry_after(response.headers)
                raw = response.read()
                response.close()
                try:
                    envelope = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    envelope = None
                if status == 503:
                    # A shed request was never processed: count it
                    # against the breaker and retry after the back-off.
                    self.breaker.record_failure(retry_after_s)
                    if attempt < self.retries:
                        self._sleep_before_retry(attempt, retry_after_s)
                        attempt += 1
                        self.breaker.check()
                        continue
                elif status == 429:
                    # A quota rejection is a healthy server saying *this
                    # tenant* is over budget — per-tenant policy, not a
                    # service-health signal, so it must never open the
                    # shared breaker. Still honor Retry-After and retry.
                    self.breaker.record_success()
                    if attempt < self.retries:
                        self._sleep_before_retry(attempt, retry_after_s)
                        attempt += 1
                        self.breaker.check()
                        continue
                else:
                    # Any other HTTP answer means the server is up and
                    # processing — a 400 is the caller's problem, not a
                    # service-health signal.
                    self.breaker.record_success()
                if envelope is None:
                    raise ServiceError(
                        f"HTTP {status}: {raw[:200]!r}",
                        status=status,
                        retry_after_s=retry_after_s,
                    ) from None
                raise _error_from_envelope(
                    envelope, status, retry_after_s
                ) from None
            self.breaker.record_success()
            return response

    def _request(self, method: str, path: str,
                 payload: "dict | None" = None) -> dict:
        with self._open(method, path, payload) as response:
            body = response.read()
        envelope = json.loads(body.decode("utf-8"))
        if not envelope.get("ok", False):
            raise _error_from_envelope(envelope)
        return envelope

    def _post(self, path: str, payload: dict) -> dict:
        payload.setdefault("schema", SCHEMA_VERSION)
        return self._request("POST", path, payload)

    # -- API -----------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")["result"]

    def stats(self) -> dict:
        return self._request("GET", "/stats")["result"]

    def usage(self) -> dict:
        """This token's tenant usage totals (``GET /usage``).

        The result carries ``tenant`` and ``usage`` (counter totals);
        admin-scoped tokens — and any client of a server without auth
        enforcement — additionally see ``tenants``, every tenant's
        totals.
        """
        return self._request("GET", "/usage")["result"]

    def evaluate(
        self,
        design,
        workload="av",
        fab_location=None,
        label: "str | None" = None,
        backend: "str | None" = None,
    ) -> dict:
        """One point; returns the envelope (``result`` + ``cache`` tag).

        ``backend`` selects a registered carbon backend (``"act"``,
        ``"lca"``, ...); omitted means the 3D-Carbon model.
        """
        return self.submit_payload(_specs().evaluate(
            design, workload=workload, fab_location=fab_location,
            label=label, backend=backend,
        ).to_payload())

    def batch(self, points: "list[dict]") -> dict:
        """``points`` are wire-format dicts (design/workload/fab_location)."""
        return self.submit_payload(_specs().batch(points).to_payload())

    def sweep(
        self,
        design,
        integrations: "list[str] | None" = None,
        fab_locations: "list | None" = None,
        workload="av",
        backend: "str | None" = None,
    ) -> dict:
        return self.submit_payload(_specs().sweep(
            design, integrations=integrations, fab_locations=fab_locations,
            workload=workload, backend=backend,
        ).to_payload())

    def montecarlo(
        self,
        design,
        workload="av",
        fab_location=None,
        samples: int = 200,
        seed: int = DEFAULT_SEED,
        backend: "str | None" = None,
        return_samples: bool = False,
    ) -> dict:
        return self.submit_payload(_specs().monte_carlo(
            design, samples=samples, seed=seed, workload=workload,
            fab_location=fab_location, backend=backend,
            return_samples=return_samples,
        ).to_payload())

    def compare(
        self,
        design,
        backends: "list[str] | None" = None,
        workload="none",
        fab_location=None,
        draws: int = 0,
        seed: int = DEFAULT_SEED,
    ) -> dict:
        """One design across backends, server-side, in one engine batch.

        ``backends=None`` compares every backend the server registers;
        ``draws > 0`` adds a per-backend Monte-Carlo band drawn from
        each backend's own factor set.
        """
        return self.submit_payload(_specs().compare(
            design, backends=backends, workload=workload,
            fab_location=fab_location, draws=draws, seed=seed,
        ).to_payload())

    def tornado(
        self,
        design,
        workload="av",
        fab_location=None,
        backend: "str | None" = None,
    ) -> dict:
        """One-at-a-time sensitivity study over the backend's own factors."""
        return self.submit_payload(_specs().tornado(
            design, workload=workload, fab_location=fab_location,
            backend=backend,
        ).to_payload())

    def optimize(
        self,
        design,
        workload="av",
        integrations: "list[str] | None" = None,
        die_counts: "list[int] | None" = None,
        wafer_diameters_mm: "list[float] | None" = None,
        fab_locations: "list | None" = None,
        max_configs: "int | None" = None,
        chunk: "int | None" = None,
        seed: int = DEFAULT_SEED,
    ) -> dict:
        """Server-side Pareto search over the case-study design grid.

        ``None`` axes take the grid defaults; the result envelope's
        ``result.front`` is the sorted non-dominated set over (carbon,
        performance, cost).
        """
        return self.submit_payload(_specs().optimize(
            design, workload=workload, integrations=integrations,
            die_counts=die_counts, wafer_diameters_mm=wafer_diameters_mm,
            fab_locations=fab_locations, max_configs=max_configs,
            chunk=chunk, seed=seed,
        ).to_payload())

    # -- streaming -----------------------------------------------------------

    def submit_payload(self, payload: dict) -> dict:
        """POST any wire-format request to its route (``/<type>``).

        The location-transparency primitive behind
        :class:`repro.api.Session`: a request built once (e.g. by
        ``StudySpec.to_payload()``) runs unchanged against any server.
        """
        kind = payload.get("type")
        if not isinstance(kind, str) or not kind:
            raise ServiceError("request payload needs a \"type\" field")
        return self._post(f"/{kind}", dict(payload))

    def stream_payload(self, payload: dict):
        """POST a ``"stream": true`` request; yield its NDJSON entries.

        A generator over the stream's entries — per-point records
        (``{"index", "label", "cache", "report"}``) for batch/sweep,
        per-chunk front snapshots for optimize — raising
        :class:`ServiceError` on an in-band error line or a stream that
        ends without its ``{"done": ...}`` terminator (truncated
        response).
        """
        kind = payload.get("type")
        if not isinstance(kind, str) or not kind:
            raise ServiceError("request payload needs a \"type\" field")
        payload = {"schema": SCHEMA_VERSION, **payload}
        if payload.get("stream", False) is False:
            # A malformed flag stays for the server to reject.
            payload["stream"] = True
        response = self._open(
            "POST", f"/{kind}", payload, accept="application/x-ndjson"
        )
        try:
            header = json.loads(response.readline().decode("utf-8"))
            if not header.get("ok", False):
                raise _error_from_envelope(header)
            expected = header.get("points", 0)
            count = 0
            for line in response:
                entry = json.loads(line.decode("utf-8"))
                if entry.get("done"):
                    if count != expected:
                        raise ServiceError(
                            f"stream ended after {count} of {expected} points"
                        )
                    return
                if entry.get("ok") is False:
                    raise _error_from_envelope(entry)
                count += 1
                yield entry
            raise ServiceError(
                f"stream closed without completion marker "
                f"({count}/{expected} points)"
            )
        finally:
            response.close()

    def stream_batch(self, points: "list[dict]"):
        """Stream a batch point-by-point as the server finishes each."""
        return self.stream_payload(_specs().batch(points).to_payload())

    def stream_sweep(
        self,
        design,
        integrations: "list[str] | None" = None,
        fab_locations: "list | None" = None,
        workload="av",
        backend: "str | None" = None,
    ):
        """Stream an expanded sweep grid point-by-point."""
        return self.stream_payload(_specs().sweep(
            design, integrations=integrations, fab_locations=fab_locations,
            workload=workload, backend=backend,
        ).to_payload())

    def stream_optimize(
        self,
        design,
        workload="av",
        integrations: "list[str] | None" = None,
        die_counts: "list[int] | None" = None,
        wafer_diameters_mm: "list[float] | None" = None,
        fab_locations: "list | None" = None,
        max_configs: "int | None" = None,
        chunk: "int | None" = None,
        seed: int = DEFAULT_SEED,
    ):
        """Stream a Pareto search chunk-by-chunk (running front snapshots)."""
        return self.stream_payload(_specs().optimize(
            design, workload=workload, integrations=integrations,
            die_counts=die_counts, wafer_diameters_mm=wafer_diameters_mm,
            fab_locations=fab_locations, max_configs=max_configs,
            chunk=chunk, seed=seed,
        ).to_payload())
