"""The HTTP face of the service: a stdlib-only threaded JSON API.

``CarbonService`` is a :class:`http.server.ThreadingHTTPServer` whose
handler routes:

* ``POST /evaluate``   — one point → a lifecycle report;
* ``POST /batch``      — many points, deduplicated;
* ``POST /sweep``      — integration × fab-location grid of a reference;
* ``POST /montecarlo`` — a Monte-Carlo uncertainty summary drawn from
  the chosen backend's own factor set;
* ``POST /compare``    — one design across all (or listed) backends in
  one engine batch, optionally with per-backend uncertainty bands;
* ``POST /tornado``    — the one-at-a-time sensitivity study over the
  backend's own factor set;
* ``POST /optimize``   — the vectorized Pareto search over the
  case-study design grid (carbon × performance × cost);
* ``GET  /healthz``    — liveness + config echo (``/healthz/live`` and
  ``/healthz/ready`` split the probe for orchestrators);
* ``GET  /stats``      — dispatcher / engine / store / service counters;
* ``GET  /usage``      — the calling tenant's usage counters (all
  tenants for admin-scoped tokens and open servers).

Validation errors answer 400 with the typed error envelope of
:mod:`repro.service.schema`; unknown routes answer 404; unexpected
failures answer 500 (the error type still in the payload). Worker
threads share one :class:`~repro.service.dispatcher.Dispatcher`, whose
store/in-flight coalescing makes concurrent identical requests cheap.

**Degradation.** Work-bearing POSTs pass an admission gate bounded at
``max_inflight`` concurrent requests (after a short ``queue_wait_s``
grace); past it the service *sheds* with a typed 503 +
``Retry-After`` — bounded latency for admitted requests instead of
unbounded queueing for all. A request carrying an
``X-Carbon3D-Deadline-Ms`` header gets a cooperative deadline budget
threaded through the dispatcher; overruns answer a typed 504. On
``close()`` (the CLI wires SIGTERM to it) the service stops admitting,
finishes in-flight requests (results land in the store), and only then
releases the listener and store — a graceful drain.

**Streaming.** ``/batch`` and ``/sweep`` requests carrying
``"stream": true`` answer ``application/x-ndjson``: one header line
(``{"schema": 1, "ok": true, "stream": <kind>, "points": N}``), then one
line per point **as it finishes** — store hits immediately, computed
points right after their engine call lands (each feeding the store) —
and a ``{"done": true, "points": N}`` terminator. ``/optimize`` streams
the same framing with one running front snapshot per evaluated chunk. Entries keep input
order and carry an explicit ``index``. A mid-stream failure emits one
final ``{"ok": false, "error": {...}}`` line (the status line already
went out as 200, so the error rides in-band).

**Auth & tenancy.** Every request resolves its ``X-Carbon3D-Token``
header against the :class:`~repro.tenancy.tokens.TokenRegistry`
(``tokens_path=`` / ``carbon3d serve --tokens``) into a
:class:`~repro.tenancy.namespace.TenantContext` *before* dispatch; the
context rides a contextvar through the whole request, so the dispatcher
namespaces store keys, enforces quotas (typed 429 + ``Retry-After``,
distinct from the overload 503), and meters usage per tenant without
any parameter threading. ``GET /healthz*`` and ``GET /metrics`` stay
open for probes and scrapers; everything else answers 401 with a typed
``AuthError`` payload when the registry is enforcing. A token issued
for the ``anonymous`` tenant authenticates into the open server's
unsalted namespace, so its store rows are shared with open serving.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import selectors
import socket
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..config.parameters import ParameterSet
from ..errors import CarbonModelError, EvaluationTimeout
from ..obs import trace as obs_trace
from ..obs.logging import JsonRequestLog
from ..obs.metrics import MetricsRegistry
from ..resilience.deadline import BUDGET_MS_RULE, Deadline, valid_budget_ms
from ..resilience.faults import resolve_injector
from ..tenancy.namespace import TenantContext, tenant_scope
from ..tenancy.quota import QuotaExceededError
from ..tenancy.tokens import TokenRegistry
from . import schema
from .dispatcher import Dispatcher
from .store import ResultStore

#: Header carrying the caller's registry-issued ``c3d_...`` API token.
TOKEN_HEADER = "X-Carbon3D-Token"

#: Request bodies above this size are refused outright (16 MiB of JSON
#: is far beyond any legitimate batch under the schema's point limits).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Header carrying a per-request deadline budget in milliseconds
#: (re-exported from the schema module, where the wire format lives).
DEADLINE_HEADER = schema.DEADLINE_HEADER

#: The GET endpoints. The POST routes are the study kinds' own, read
#: from the table per request (:func:`~repro.service.schema.route_kind`).
GET_ROUTES = (
    "/healthz", "/healthz/live", "/healthz/ready", "/stats", "/metrics",
    "/usage",
)


def routes() -> "tuple[str, ...]":
    """Every route: one POST per study kind, then the GET endpoints."""
    return tuple(
        kind.route for kind in schema.STUDY_KINDS.values()
    ) + GET_ROUTES


class AdmissionGate:
    """A bounded in-flight counter: admit, briefly queue, or shed.

    ``try_enter`` admits immediately while under ``limit``; at capacity
    it waits up to ``queue_wait_s`` for a slot before reporting failure
    (the caller sheds with 503). ``wait_idle`` is the drain barrier:
    it returns once every admitted request has left.
    """

    def __init__(self, limit: int, queue_wait_s: float = 0.1) -> None:
        if limit < 1:
            raise ValueError(f"admission limit must be >= 1, got {limit}")
        self.limit = limit
        self.queue_wait_s = max(0.0, queue_wait_s)
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def try_enter(self) -> bool:
        deadline_at = time.monotonic() + self.queue_wait_s
        with self._cond:
            while self._inflight >= self.limit:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            self._inflight += 1
            return True

    def leave(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def wait_idle(self, timeout_s: "float | None" = None) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline_at = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        with self._cond:
            while self._inflight > 0:
                remaining = (
                    None if deadline_at is None
                    else deadline_at - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True


#: One plain header line: an RFC 5322 field name, a colon, and a value of
#: printable ASCII (tabs allowed) up to the line end. Anything else —
#: a folded continuation, a bare CR, non-ASCII bytes — is left to the
#: ``email`` parser the stdlib uses, so its reading stays the reference.
_HEADER_LINE = re.compile(rb"([!-9;-~]+):[ \t]*([\t -~]*)\r?\n")


class RequestHeaders:
    """A request head read without the ``email`` package.

    Names compare case-insensitively and the first of repeated headers
    wins, as with :meth:`email.message.Message.get`; a missing name
    reads ``None`` by subscript too.
    """

    __slots__ = ("_first",)

    def __init__(self, items: "list[tuple[str, str]]") -> None:
        self._first: "dict[str, str]" = {}
        for name, value in items:
            self._first.setdefault(name.lower(), value)

    def get(self, name: str, default=None):
        return self._first.get(name.lower(), default)

    __getitem__ = get

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._first


def read_headers(rfile, message_class):
    """The header block of a request, read off ``rfile``.

    Keeps :func:`http.client.parse_headers`' limits and errors: a line
    longer than ``http.client._MAXLINE`` raises
    :class:`http.client.LineTooLong`, more than ``_MAXHEADERS`` lines
    :class:`http.client.HTTPException`. A block of plain ``Name: value``
    lines becomes a :class:`RequestHeaders`; any other block is parsed by
    :func:`http.client.parse_headers` into ``message_class``.
    """
    lines = []
    while True:
        line = rfile.readline(http.client._MAXLINE + 1)
        if len(line) > http.client._MAXLINE:
            raise http.client.LineTooLong("header line")
        lines.append(line)
        if len(lines) > http.client._MAXHEADERS:
            raise http.client.HTTPException(
                "got more than %d headers" % http.client._MAXHEADERS
            )
        if line in (b"\r\n", b"\n", b""):
            break
    items = []
    for line in lines[:-1]:
        match = _HEADER_LINE.fullmatch(line)
        if match is None:
            return http.client.parse_headers(
                io.BytesIO(b"".join(lines)), _class=message_class
            )
        items.append((match[1].decode("ascii"), match[2].decode("ascii")))
    return RequestHeaders(items)


class ServiceHandler(BaseHTTPRequestHandler):
    """Route requests to the owning :class:`CarbonService`'s dispatcher."""

    server: "CarbonService"
    protocol_version = "HTTP/1.1"
    # Keep-alive clients send the next request the instant the response
    # lands; Nagle holding the response body for the peer's delayed ACK
    # costs a flat ~40ms per exchange on small JSON payloads.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def parse_request(self) -> bool:
        """:meth:`BaseHTTPRequestHandler.parse_request`, minus ``email``.

        The request line, the keep-alive and ``Expect: 100-continue``
        handling and every error answer follow the stdlib method line by
        line; only the header block goes through :func:`read_headers`.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # Enough to determine protocol version
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                base_version_number = version.split("/", 1)[1]
                version_number = base_version_number.split(".")
                if len(version_number) != 2:
                    raise ValueError
                if any(not part.isdigit() for part in version_number):
                    raise ValueError("non digit in http version")
                if any(len(part) > 10 for part in version_number):
                    raise ValueError("unreasonable length http version")
                version_number = int(version_number[0]), int(version_number[1])
            except (ValueError, IndexError):
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad request version (%r)" % version)
                return False
            if (
                version_number >= (1, 1)
                and self.protocol_version >= "HTTP/1.1"
            ):
                self.close_connection = False
            if version_number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    "Invalid HTTP version (%s)" % base_version_number)
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST,
                "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad HTTP/0.9 request type (%r)" % command)
                return False
        self.command, self.path = command, path
        if self.path.startswith("//"):
            self.path = "/" + self.path.lstrip("/")  # Reduce to a single /
        try:
            self.headers = read_headers(self.rfile, self.MessageClass)
        except http.client.LineTooLong as err:
            self.send_error(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                "Line too long",
                str(err))
            return False
        except http.client.HTTPException as err:
            self.send_error(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                "Too many headers",
                str(err))
            return False
        conntype = self.headers.get("Connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif (
            conntype == "keep-alive"
            and self.protocol_version >= "HTTP/1.1"
        ):
            self.close_connection = False
        expect = self.headers.get("Expect", "")
        if (
            expect.lower() == "100-continue"
            and self.protocol_version >= "HTTP/1.1"
            and self.request_version >= "HTTP/1.1"
        ):
            if not self.handle_expect_100():
                return False
        return True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            sys.stderr.write(
                "[carbon3d] %s %s\n" % (self.address_string(), format % args)
            )

    def _send_json(
        self, status: int, payload: dict,
        headers: "dict[str, str] | None" = None,
    ) -> None:
        if "ok" in payload:
            # Envelope-level correlation: the request's trace id rides
            # next to "ok", never inside "result" (whose bytes are
            # parity-pinned against local execution).
            trace_id = obs_trace.current_trace_id()
            if trace_id is not None:
                payload.setdefault("trace_id", trace_id)
        self._log_status = status
        self._log_cache = payload.get("cache")
        if payload.get("ok") is False:
            self._log_error = (payload.get("error") or {}).get("type")
        body = schema.dumps_envelope(payload).encode("utf-8")
        if self._tenant_ctx is not None:
            self._tenant_ctx.add("bytes_out", len(body))
            # Flush usage BEFORE the response bytes reach the socket:
            # once the client has the answer it may immediately send the
            # next request (possibly to another fleet worker), and quota
            # admission must already see this one in the ledger —
            # post-response accounting would enforce ceilings one
            # request late, racily.
            self._flush_tenant(self._tenant_ctx, status)
        self._send_body(status, "application/json", body, headers)

    def _send_error(
        self, status: int, error: Exception,
        headers: "dict[str, str] | None" = None,
    ) -> None:
        self._send_json(status, schema.error_envelope(error), headers)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        self._log_status = status
        self._send_body(status, content_type, body.encode("utf-8"))

    def _send_body(
        self, status: int, content_type: str, data: bytes,
        headers: "dict[str, str] | None" = None,
    ) -> None:
        """Status line, headers and body, in one socket write."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        if self.close_connection:
            # Advertise what the server is about to do anyway (set when a
            # request body was never drained off a keep-alive socket).
            self.send_header("Connection", "close")
        # end_headers() would send the buffered head in a write of its
        # own; finish the head here and send it together with the body.
        parts = getattr(self, "_headers_buffer", [])
        if self.request_version != "HTTP/0.9":
            parts.append(b"\r\n")
        parts.append(data)
        self._headers_buffer = []
        self.wfile.write(b"".join(parts))

    def _resolve_tenant(self) -> TenantContext:
        """``X-Carbon3D-Token`` → the caller's tenant context.

        The auth middleware: runs before any dispatch. A server without
        an enforcing registry (no tokens ever issued) is open — every
        caller is the anonymous tenant, exactly the pre-tenancy
        behavior. An enforcing registry answers a typed
        :class:`~repro.service.schema.AuthError` (wire 401) for missing,
        unknown, or revoked tokens; resolution is a cached (or one
        indexed) row read plus a constant-time hash compare.
        """
        registry = self.server.tokens
        if registry is None or not registry.enforcing():
            return TenantContext()
        provided = self.headers.get(TOKEN_HEADER)
        if not provided:
            raise schema.AuthError("missing service token")
        record = registry.resolve(provided)
        if record is None:
            raise schema.AuthError("invalid or revoked service token")
        return TenantContext.from_record(record)

    def _deadline(self) -> "Deadline | None":
        """The request's deadline budget from ``X-Carbon3D-Deadline-Ms``."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            budget_ms = float(raw)
        except ValueError:
            budget_ms = float("nan")  # not a number: fails the rule too
        if not valid_budget_ms(budget_ms):
            raise schema.SchemaError(
                f"{DEADLINE_HEADER} must be {BUDGET_MS_RULE}, got {raw!r}"
            )
        return Deadline.after_ms(budget_ms)

    def _send_stream(self, kind: str, total: int, entries) -> None:
        """Write an NDJSON point stream (see the module docstring)."""
        # The response has no Content-Length — the body ends when the
        # connection closes, so keep-alive reuse is off the table.
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()

        self._log_status = 200
        trace_id = obs_trace.current_trace_id()

        def write_line(payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8") + b"\n"
            if self._tenant_ctx is not None:
                self._tenant_ctx.add("bytes_out", len(data))
            self.wfile.write(data)
            self.wfile.flush()

        header = {
            "schema": schema.SCHEMA_VERSION,
            "ok": True,
            "stream": kind,
            "points": total,
        }
        if trace_id is not None:
            # Correlate the stream's framing lines; per-point entries
            # stay byte-identical to local execution (parity-pinned).
            header["trace_id"] = trace_id
        write_line(header)
        try:
            for entry in entries:
                write_line(entry)
        except Exception as error:
            # Too late for a non-200 status; the error rides in-band as
            # the stream's final line.
            self.server.dispatcher.stats.inc("errors")
            trailer = schema.error_envelope(error)
            if trace_id is not None:
                trailer["trace_id"] = trace_id
            self._log_error = trailer.get("error", {}).get("type")
            write_line(trailer)
            if self._tenant_ctx is not None:
                # Flush before the connection closes (the client reads
                # until EOF, so the ledger is current by the time it can
                # issue a follow-up) — partial work is still billed.
                self._flush_tenant(self._tenant_ctx, 200)
            return
        done = {"done": True, "points": total}
        if trace_id is not None:
            done["trace_id"] = trace_id
        write_line(done)
        if self._tenant_ctx is not None:
            self._flush_tenant(self._tenant_ctx, 200)

    def _read_body(self) -> bytes:
        # Until the body is fully read off the socket, answering on a
        # keep-alive connection would leave the unread bytes to be parsed
        # as the next HTTP request — poison the connection instead of
        # reusing it.
        self.close_connection = True
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise schema.SchemaError(
                "request needs a Content-Length header and a JSON body"
            ) from None
        if not 0 < length <= MAX_BODY_BYTES:
            raise schema.SchemaError(
                f"request body must be 1..{MAX_BODY_BYTES} bytes, "
                f"got {length}"
            )
        body = self.rfile.read(length)
        self.close_connection = False
        return body

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._observe_request("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._observe_request("POST", self._handle_post)

    def _observe_request(self, method: str, handler) -> None:
        """Per-request trace root, latency histogram, and JSON log line.

        The root span adopts an incoming ``X-Carbon3D-Trace-Id`` header
        (client-chosen correlation) or mints a fresh id; every span the
        handler opens below — dispatcher, store, engine stages — lands
        in the same trace, and the id is echoed
        in the response envelope by :meth:`_send_json`.
        """
        server = self.server
        self._log_status = 0
        self._log_cache = None
        self._log_error = None
        self._log_shed = False
        #: Set by _handle_post once the caller's tenant resolves; the
        #: response writers accumulate bytes into it and flush it to the
        #: usage ledger just before the response hits the socket.
        self._tenant_ctx = None
        self._tenant_flushed = False
        incoming = self.headers.get(obs_trace.TRACE_HEADER)
        started = time.perf_counter()
        with obs_trace.trace(
            f"http.{method.lower()} {self.path}", trace_id=incoming
        ) as root:
            trace_id = root.trace_id
            handler()
        if self._tenant_ctx is not None and not self._tenant_flushed:
            # Backstop for requests that died before any response write
            # (socket errors mid-handler): the work still gets billed.
            self._flush_tenant(self._tenant_ctx, self._log_status)
        duration_s = time.perf_counter() - started
        # Routes that exist only, for bounded-cardinality metric labels.
        route = (
            self.path
            if self.path in GET_ROUTES or schema.route_kind(self.path)
            else "(unknown)"
        )
        server.request_hist.labels(method=method, route=route).observe(
            duration_s
        )
        if server.request_log is not None:
            server.request_log.request(
                method=method,
                route=route,
                status=self._log_status,
                duration_s=duration_s,
                trace_id=trace_id,
                cache=self._log_cache,
                shed=self._log_shed,
                error=self._log_error,
            )

    def _flush_tenant(self, ctx: TenantContext, status: int) -> None:
        """One ledger write + metric bumps per served work request.

        Status decides the accounting: a quota 429 bills
        ``quota_rejected`` (the request never ran), anything else counts
        a request (plus ``errors`` on 4xx/5xx); the dispatcher-mirrored
        counters (points / computed / store hits) and the response bytes
        ride in the same batch. Accounting must never fail the response,
        so ledger errors are swallowed (the store layer already
        retries/heals underneath).
        """
        self._tenant_flushed = True
        server = self.server
        if status == 429:
            ctx.add("quota_rejected")
            server.tenant_rejected.labels(tenant=ctx.tenant).inc()
        else:
            ctx.add("requests")
            if status >= 400:
                ctx.add("errors")
        server.tenant_requests.labels(tenant=ctx.tenant).inc()
        points = ctx.counters.get("points", 0)
        if points:
            server.tenant_points.labels(tenant=ctx.tenant).inc(points)
        try:
            server.dispatcher.usage.record(ctx.tenant, **ctx.counters)
        except Exception as error:
            sys.stderr.write(
                f"[carbon3d] dropping usage record for tenant "
                f"{ctx.tenant!r}: {type(error).__name__}: {error}\n"
            )

    def _handle_get(self) -> None:
        try:
            if not (
                self.path.startswith("/healthz") or self.path == "/metrics"
            ):
                # Everything else is tenant-scoped once the registry
                # enforces; AuthError → the 401 branch below. Billed
                # like any served request (_send_json flushes the ctx).
                ctx = self._resolve_tenant()
                self._tenant_ctx = ctx
            else:
                ctx = None
            if self.path == "/healthz":
                self._send_json(200, self.server.health_payload())
            elif self.path == "/healthz/live":
                # Liveness: the process answers, full stop. Never 503s —
                # a draining server is still *alive* and must not be
                # restarted mid-drain.
                self._send_json(
                    200, schema.ok_envelope({"status": "alive"})
                )
            elif self.path == "/healthz/ready":
                # Readiness: whether new work should be routed here.
                if self.server.draining:
                    self._send_error(
                        503,
                        schema.OverloadedError(
                            "service is draining",
                            retry_after_s=self.server.retry_after_s,
                        ),
                        headers=self.server.retry_after_headers(),
                    )
                else:
                    self._send_json(
                        200, schema.ok_envelope({"status": "ready"})
                    )
            elif self.path == "/stats":
                self._send_json(
                    200,
                    schema.ok_envelope(self.server.stats_dict()),
                )
            elif self.path == "/usage":
                self._send_json(
                    200,
                    schema.ok_envelope(self.server.usage_payload(ctx)),
                )
            elif self.path == "/metrics":
                # Prometheus text exposition; open (like /healthz*) so
                # scrapers need no service token.
                self._send_text(
                    200,
                    self.server.metrics.render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._send_error(
                    404, schema.SchemaError(f"no such route: {self.path}")
                )
        except schema.AuthError as error:
            self._send_error(401, error)
        except Exception as error:  # pragma: no cover - defensive
            self.server.dispatcher.stats.inc("errors")
            self._send_error(500, error)

    def _handle_post(self) -> None:
        # Pessimistic until the request body is drained off the socket:
        # any early answer (auth, shed, injected fault, bad deadline)
        # leaves unread body bytes that would be parsed as the next
        # request on a reused keep-alive connection. _read_body
        # flips this back once the body is fully read.
        self.close_connection = True
        try:
            ctx = self._resolve_tenant()
        except schema.AuthError as error:
            # The body stays unread, so the connection cannot be
            # reused — close it rather than parse attacker bytes. An
            # unauthenticated caller is nobody's tenant: no usage row.
            self._send_error(401, error)
            return
        self._tenant_ctx = ctx
        with tenant_scope(ctx):
            # The scope covers dispatch AND stream consumption (both on
            # this handler thread): every store key, quota check, and
            # mirrored counter below sees the caller's tenant.
            self._dispatch_post(ctx)

    def _dispatch_post(self, ctx: TenantContext) -> None:
        server = self.server
        dispatcher = server.dispatcher
        admitted = False
        try:
            if server.faults.active:
                server.faults.hit("server.request")
            if server.draining:
                self.close_connection = True
                raise schema.OverloadedError(
                    "service is draining; no new work is admitted",
                    retry_after_s=server.retry_after_s,
                )
            if not server.gate.try_enter():
                server.shed_counter.inc()
                self.close_connection = True
                raise schema.OverloadedError(
                    f"service at capacity ({server.gate.limit} requests in "
                    f"flight); shedding load",
                    retry_after_s=server.retry_after_s,
                )
            admitted = True
            deadline = self._deadline()
            body = self._read_body()
            kind = schema.route_kind(self.path)
            if kind is None:
                # A body that is not JSON is a 400 on any route.
                schema.decode_body(body)
                self._send_error(
                    404, schema.SchemaError(f"no such route: {self.path}")
                )
                return
            # The raw bytes: parse_request remembers /evaluate bodies.
            request = schema.parse_request(body, kind.wire)
            if kind.streams and request.stream:
                total, entries = dispatcher.stream(
                    kind.wire, request, deadline=deadline
                )
                self._send_stream(kind.wire, total, entries)
                return
            # /evaluate, /batch and /sweep hand reports back as JSON text
            # where they can (a store hit as stored, a computed batch
            # report as the row it was stored as); the envelope splices
            # that text in without decoding it.
            result, source = dispatcher.run(
                kind.wire, request, deadline=deadline, encoded=True
            )
            if kind.cached:
                envelope = schema.ok_envelope(result, cache=source)
            else:
                envelope = schema.ok_envelope(result)
            self._send_json(200, envelope)
        except EvaluationTimeout as error:
            # Before CarbonModelError: the typed timeout is a 504, not a
            # client mistake.
            dispatcher.stats.inc("errors")
            self._send_error(504, error)
        except QuotaExceededError as error:
            # Before CarbonModelError: a quota rejection is a typed 429
            # with its own Retry-After — the tenant's budget ran out,
            # not the service's capacity (that is the 503 below) and not
            # a client mistake (the 400 below). The dispatcher admitted
            # nothing, so no error counter; _flush_tenant bills it as
            # quota_rejected off the 429 status.
            self._send_error(
                429, error,
                headers=server.retry_after_headers(error.retry_after_s),
            )
        except schema.OverloadedError as error:
            # Shed, not failed: the request was never processed, so the
            # client may safely retry after the advertised back-off.
            self._log_shed = True
            self._send_error(503, error, headers=server.retry_after_headers())
        except CarbonModelError as error:
            dispatcher.stats.inc("errors")
            self._send_error(400, error)
        except Exception as error:
            dispatcher.stats.inc("errors")
            self._send_error(500, error)
        finally:
            if admitted:
                server.gate.leave()


class CarbonService(ThreadingHTTPServer):
    """A carbon-evaluation server bound to one dispatcher + result store."""

    daemon_threads = True
    # Graceful drain means "finish admitted work" (gate.wait_idle in
    # close()), not "wait for every keep-alive client to hang up": a
    # handler thread parked in readline on an idle persistent connection
    # must not block server_close() indefinitely.
    block_on_close = False

    def __init__(
        self,
        address: "tuple[str, int]" = ("127.0.0.1", 0),
        params: "ParameterSet | None" = None,
        fab_location: "str | float" = "taiwan",
        store_path: "str | None" = None,
        store: "ResultStore | None" = None,
        max_entries: int = 100_000,
        verbose: bool = False,
        max_inflight: int = 32,
        queue_wait_s: float = 0.1,
        retry_after_s: float = 1.0,
        drain_timeout_s: float = 30.0,
        faults=None,
        log_json: bool = False,
        request_log: "JsonRequestLog | None" = None,
        listen_socket=None,
        worker_index: "int | None" = None,
        tokens_path: "str | None" = None,
        token_registry: "TokenRegistry | None" = None,
    ) -> None:
        if listen_socket is None:
            super().__init__(address, ServiceHandler)
        else:
            # Pre-forked fleet worker: adopt the listening socket the
            # parent bound before forking instead of binding our own.
            # The auto-created socket is discarded unbound; the shared
            # one is already bound *and* listening, so neither
            # server_bind nor server_activate runs.
            super().__init__(address, ServiceHandler, bind_and_activate=False)
            self.socket.close()
            self.socket = listen_socket
            self.server_address = self.socket.getsockname()
            host, port = self.server_address[:2]
            self.server_name = host
            self.server_port = port
        #: Position in a pre-forked fleet (None when standalone); tags
        #: this process's Prometheus series with a ``worker`` label.
        self.worker_index = worker_index
        self.faults = resolve_injector(faults)
        if store is None and store_path is not None:
            store = ResultStore(
                store_path, max_entries=max_entries, faults=self.faults
            )
        self.store = store
        #: Token registry — the tenancy control plane's source of truth.
        #: ``token_registry=`` shares a caller-owned instance (tests),
        #: ``tokens_path=`` opens/creates the SQLite file (each fleet
        #: worker opens its own connection after the fork); with neither
        #: the server is open.
        self._owns_tokens = token_registry is None
        self.tokens = token_registry
        if self.tokens is None and tokens_path is not None:
            self.tokens = TokenRegistry(tokens_path)
        self.dispatcher = Dispatcher(
            params=params, fab_location=fab_location, store=store,
            faults=self.faults,
            metrics=(
                None
                if worker_index is None
                else MetricsRegistry(
                    const_labels={"worker": str(worker_index)}
                )
            ),
        )
        self.verbose = verbose
        self.started_s = time.time()
        self._serving = False
        #: Shutdown wake-up: :meth:`shutdown` sets ``_stop`` and writes a
        #: byte to ``_wake_out``; the serve loop watches ``_wake_in``
        #: beside the listener, so it stops without waiting out a poll.
        self._stop = False
        self._stopped = threading.Event()
        self._wake_in, self._wake_out = socket.socketpair()
        self._wake_in.setblocking(False)
        self._wake_out.setblocking(False)
        #: Load-shedding knobs: at most ``max_inflight`` POSTs run
        #: concurrently (after a ``queue_wait_s`` grace); shed answers
        #: advertise ``retry_after_s``.
        self.gate = AdmissionGate(max_inflight, queue_wait_s)
        self.retry_after_s = retry_after_s
        self.drain_timeout_s = drain_timeout_s
        #: While True, new POSTs shed with 503 and ``/healthz/ready``
        #: answers 503 — flipped by :meth:`close` during shutdown.
        self.draining = False
        #: Shared metrics registry (the dispatcher's); ``GET /metrics``
        #: renders it, ``/stats`` snapshots it.
        self.metrics = self.dispatcher.metrics
        self.request_hist = self.metrics.histogram(
            "carbon3d_request_duration_seconds",
            "HTTP request wall time, by method and route",
        )
        self.shed_counter = self.metrics.counter(
            "carbon3d_shed_requests_total",
            "POSTs shed by the admission gate or during drain",
        )
        #: Per-tenant series for ``/metrics`` — labeled children are
        #: created lazily per tenant id (bounded by the registry's
        #: token count, so cardinality stays operator-controlled).
        self.tenant_requests = self.metrics.counter(
            "carbon3d_tenant_requests_total",
            "Work POSTs answered, by tenant (quota rejections included)",
        )
        self.tenant_points = self.metrics.counter(
            "carbon3d_tenant_points_total",
            "Evaluation points billed, by tenant",
        )
        self.tenant_rejected = self.metrics.counter(
            "carbon3d_tenant_quota_rejected_total",
            "Requests answered 429 by per-tenant quota enforcement",
        )
        self.metrics.gauge(
            "carbon3d_inflight_requests",
            "Admitted POSTs currently being processed",
            fn=lambda: self.gate.inflight,
        )
        self.metrics.gauge(
            "carbon3d_admission_limit",
            "Admission gate concurrency limit (max_inflight)",
            fn=lambda: self.gate.limit,
        )
        self.metrics.gauge(
            "carbon3d_draining",
            "1 while the service drains (sheds new work), else 0",
            fn=lambda: int(self.draining),
        )
        #: One JSON line per request on stderr when enabled
        #: (``carbon3d serve --log-json``); any stream via request_log=.
        self.request_log = (
            request_log
            if request_log is not None
            else (JsonRequestLog() if log_json else None)
        )

    @property
    def shed_requests(self) -> int:
        """Lifetime shed count (counter-backed, atomic)."""
        return self.shed_counter.value

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def retry_after_headers(self, seconds: "float | None" = None) -> dict:
        # Retry-After is an integer number of seconds; round up so a
        # client honoring the header never retries early. ``seconds``
        # overrides the shed default (quota 429s advertise the bucket's
        # own refill time).
        value = self.retry_after_s if seconds is None else seconds
        return {"Retry-After": str(max(1, int(-(-value // 1))))}

    @property
    def auth_enforced(self) -> bool:
        """Whether requests must carry a resolvable token right now."""
        return self.tokens is not None and self.tokens.enforcing()

    def usage_payload(self, ctx: "TenantContext | None") -> dict:
        """``GET /usage``: the caller's ledger totals, JSON-ready.

        Every caller sees its own tenant's counters; admin-scoped
        tokens — and open servers, where "everyone" is the operator —
        additionally get the all-tenants breakdown.
        """
        ctx = ctx if ctx is not None else TenantContext()
        ledger = self.dispatcher.usage
        payload = {
            "tenant": ctx.tenant,
            "usage": ledger.totals(ctx.tenant),
        }
        if ctx.is_admin or not self.auth_enforced:
            payload["tenants"] = ledger.all_totals()
        return payload

    def health_payload(self) -> dict:
        from ..pipeline.registry import backend_names

        return schema.ok_envelope({
            "status": "draining" if self.draining else "ok",
            "live": True,
            "ready": not self.draining,
            "schema": schema.SCHEMA_VERSION,
            "uptime_s": time.time() - self.started_s,
            "fab_location": self.dispatcher.fab_location,
            "store": None if self.store is None else self.store.path,
            "backends": list(backend_names()),
            "auth": self.auth_enforced,
            "tenancy": self.tokens is not None,
            "max_inflight": self.gate.limit,
            "worker": self.worker_index,
            "endpoints": list(routes()),
        })

    def stats_dict(self) -> dict:
        """Dispatcher/engine/store counters plus the service's own.

        ``metrics`` carries the full registry snapshot — histogram
        summaries (count/sum/p50/p90/p99) included — the JSON twin of
        ``GET /metrics``.
        """
        data = self.dispatcher.stats_dict()
        data["service"] = {
            "inflight": self.gate.inflight,
            "max_inflight": self.gate.limit,
            "shed_requests": self.shed_requests,
            "draining": self.draining,
            "worker": self.worker_index,
        }
        data["metrics"] = self.metrics.snapshot()
        return data

    def serve_forever(self, poll_interval: float | None = None) -> None:
        """Handle requests until :meth:`shutdown`, which wakes the loop.

        socketserver's own loop sees a shutdown only at its next
        ``poll_interval`` tick; this one blocks on the listener and the
        wake socket with no timeout, so a shutdown returns as soon as the
        loop is told. ``poll_interval`` is accepted for socketserver's
        signature and ignored.
        """
        self._serving = True
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_in, selectors.EVENT_READ)
                while not self._stop:
                    ready = selector.select()
                    if self._stop:
                        break
                    for key, _events in ready:
                        if key.fileobj is self:
                            self._handle_request_noblock()
                        else:
                            self._wake_in.recv(64)
        finally:
            self._stop = False
            self._serving = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until its loop has left.

        As with socketserver, the loop must be running in another thread.
        """
        self._stop = True
        try:
            self._wake_out.send(b"\0")
        except BlockingIOError:
            pass  # unread wake bytes fill the buffer: the loop is awake
        except OSError:
            pass  # the loop left and its owner closed the pair meanwhile
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_in.close()
        self._wake_out.close()

    def handle_error(self, request, client_address) -> None:
        """Keep routine client disconnects out of the server log.

        A keep-alive client closing its socket lands here as a
        ConnectionError from the blocked readline; the socketserver
        default would print a full traceback per disconnect.
        """
        import sys as _sys

        error = _sys.exc_info()[1]
        if isinstance(error, (ConnectionError, TimeoutError)):
            return
        if self.verbose:
            super().handle_error(request, client_address)
        else:
            _sys.stderr.write(
                f"[carbon3d] request error from {client_address}: "
                f"{type(error).__name__}: {error}\n"
            )

    def close(self) -> None:
        """Graceful drain: stop admitting, finish in-flight, then release.

        The sequence is the SIGTERM contract the CLI wires up: flip
        ``draining`` (new POSTs shed with 503, readiness goes 503), stop
        the accept loop, wait — bounded by ``drain_timeout_s`` — for
        admitted requests to finish (their results persist to the store
        on the way out), and only then close the listener socket and the
        store handle. Safe to call on a server that never entered
        ``serve_forever`` — ``shutdown()`` would otherwise block forever
        waiting on the serve loop's completion event.
        """
        self.draining = True
        if self._serving:
            self.shutdown()
        if not self.gate.wait_idle(self.drain_timeout_s):
            sys.stderr.write(
                f"[carbon3d] drain timed out after {self.drain_timeout_s}s "
                f"with {self.gate.inflight} request(s) in flight\n"
            )
        self.server_close()
        if self.store is not None:
            self.store.close()
        if self.tokens is not None and self._owns_tokens:
            self.tokens.close()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> CarbonService:
    """Bind a service (``port=0`` picks a free port; nothing runs yet)."""
    return CarbonService(address=(host, port), **kwargs)


def serve_forever(service: CarbonService) -> None:
    """Run until interrupted, then close cleanly (graceful drain)."""
    try:
        service.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        service.close()
