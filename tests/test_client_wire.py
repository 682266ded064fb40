"""What ``ServiceClient`` writes to the socket.

Each request leaves the client in one ``send``: the head and a ``bytes``
body joined. With Nagle off, two writes would be two TCP segments, and
the server would block between parsing the head and reading the body.
The joined bytes must equal what a plain
:class:`http.client.HTTPConnection` writes for the same request in its
two sends, so only the segmentation changes. A payload whose ``type``
names no route is refused before anything is written.
"""

from __future__ import annotations

import http.client
import threading

import pytest

from repro.service import ServiceClient, make_server
from repro.service.client import (
    ServiceError,
    _KeepAliveConnection,
    _KeepAliveHTTPSConnection,
    _OneWriteMixin,
)
from repro.service.schema import SchemaError


def design_payload() -> dict:
    return {
        "name": "wire_chip",
        "integration": "2d",
        "package": {"class": "fcbga"},
        "throughput_tops": 254.0,
        "dies": [{"name": "d", "node": "7nm", "gate_count": 17e9}],
    }


@pytest.fixture()
def served():
    server = make_server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServiceClient(server.url)
    finally:
        server.close()
        thread.join(timeout=5.0)


@pytest.fixture()
def sends(monkeypatch):
    """Every ``HTTPConnection.send`` call, as (connection, bytes)."""
    calls: "list[tuple[http.client.HTTPConnection, bytes]]" = []
    real = http.client.HTTPConnection.send

    def record(conn, data):
        calls.append((conn, bytes(data)))
        return real(conn, data)

    monkeypatch.setattr(http.client.HTTPConnection, "send", record)
    return calls


@pytest.fixture()
def exchanges(monkeypatch):
    """The (method, path, body, headers) of every ``ServiceClient._send``."""
    calls = []
    real = ServiceClient._send

    def record(self, conn, method, path, body, headers):
        calls.append((method, path, body, dict(headers)))
        return real(self, conn, method, path, body, headers)

    monkeypatch.setattr(ServiceClient, "_send", record)
    return calls


def plain_writes(server, method, path, body, headers, sends) -> "list[bytes]":
    """What a stdlib connection sends for the same request."""
    start = len(sends)
    conn = http.client.HTTPConnection(server.server_address[0],
                                      server.server_address[1], timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers)
        conn.getresponse().read()
    finally:
        conn.close()
    return [data for _, data in sends[start:]]


class TestOneWrite:
    def test_post_is_one_send_of_the_stdlib_bytes(
        self, served, sends, exchanges
    ):
        server, client = served
        assert client.evaluate(design_payload())["result"]["total_kg"] > 0
        assert len(sends) == 1
        conn, data = sends[0]
        assert isinstance(conn, _KeepAliveConnection)
        (method, path, body, headers), = exchanges
        assert method == "POST" and body
        plain = plain_writes(server, method, path, body, headers, sends)
        assert len(plain) == 2          # the stdlib: head, then body
        assert data == b"".join(plain)
        assert data.endswith(b"\r\n\r\n" + body)

    def test_get_is_one_send(self, served, sends):
        _, client = served
        assert client.healthz()["status"] == "ok"
        assert len(sends) == 1
        assert sends[0][1].startswith(b"GET /healthz ")

    def test_stream_post_is_one_send(self, served, sends):
        _, client = served
        entries = list(client.stream_payload({
            "type": "batch",
            "points": [{"design": design_payload()}],
        }))
        assert len(entries) == 1
        assert len(sends) == 1
        assert sends[0][1].startswith(b"POST /batch ")

    def test_https_connection_shares_the_override(self):
        override = _OneWriteMixin._send_output
        assert _KeepAliveConnection._send_output is override
        assert _KeepAliveHTTPSConnection._send_output is override
        assert override is not http.client.HTTPConnection._send_output


class TestRequestType:
    """A payload's ``type`` is checked once, before anything is sent."""

    @pytest.mark.parametrize("payload", [{}, {"type": 5}, {"type": ""}],
                             ids=["missing", "int", "empty"])
    @pytest.mark.parametrize("method", ["submit_payload", "stream_payload"])
    def test_a_bad_type_is_a_schema_error_before_any_http(
        self, served, sends, method, payload
    ):
        _, client = served
        with pytest.raises(SchemaError) as excinfo:
            # ``stream_payload`` is a generator: it runs on first use.
            list(getattr(client, method)(dict(payload)))
        assert excinfo.value.field == "type"
        assert str(excinfo.value) == (
            f"request \"type\" must be a non-empty string, "
            f"got {payload.get('type')!r}"
        )
        assert sends == []

    @pytest.mark.parametrize("method", ["submit_payload", "stream_payload"])
    def test_an_unknown_type_is_posted(self, served, sends, method):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            list(getattr(client, method)({"type": "nope"}))
        assert excinfo.value.status == 404
        assert len(sends) == 1
        assert sends[0][1].startswith(b"POST /nope ")
