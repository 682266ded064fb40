"""The Session/Study facade: location transparency, streaming, auth.

The acceptance bar of the facade PR lives here: every study kind
(evaluate / batch / sweep / monte_carlo / compare / tornado) produces
**bit-identical payloads** through ``Session(executor="local")`` and
``Session(executor="service")``, and ``StudyHandle.partial()`` streams
batch/sweep points from the service as they finish — order- and
completeness-tested — plus the registry-token auth paths and the
client's bounded-backoff retry behaviour.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import Result, ResultSet, Session, StudyError, StudySpec
from repro.core.design import ChipDesign
from repro.errors import ParameterError
from repro.service import ServiceClient, ServiceError, make_server
from repro.service.schema import SchemaError
from repro.tenancy import ANONYMOUS_TENANT, USAGE_FIELDS


def reference_design() -> ChipDesign:
    return ChipDesign.planar_2d(
        "api_soc_2d", node="7nm", gate_count=17e9, throughput_tops=254.0,
        efficiency_tops_per_w=2.74,
    )


def stacked_design() -> ChipDesign:
    return ChipDesign.homogeneous_split(reference_design(), "hybrid_3d")


def all_study_specs() -> "dict[str, StudySpec]":
    """One spec per study kind (small draw counts: these run twice)."""
    reference = reference_design()
    stacked = stacked_design()
    return {
        "evaluate": StudySpec.evaluate(stacked, label="hybrid"),
        "batch": StudySpec.batch(
            [stacked, reference, stacked]  # duplicate → dedup parity too
        ),
        "sweep": StudySpec.sweep(
            reference, integrations=["2d", "hybrid_3d", "mcm"],
            fab_locations=["taiwan", "iceland"], workload="none",
        ),
        "monte_carlo": StudySpec.monte_carlo(
            stacked, samples=16, return_samples=True
        ),
        "compare": StudySpec.compare(
            stacked, backends=["repro3d", "act", "lca"], draws=8
        ),
        "tornado": StudySpec.tornado(stacked, workload="none"),
        "optimize": StudySpec.optimize(
            reference, integrations=["hybrid_3d", "mcm"], die_counts=[2],
            wafer_diameters_mm=[300.0, 450.0],
            fab_locations=["taiwan", "iceland"],
            max_configs=24, chunk=10, seed=11,
        ),
    }


@pytest.fixture()
def service_session():
    """A running (fresh) server and a Session speaking to it."""
    server = make_server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield Session(executor="service", url=server.url)
    finally:
        server.close()
        thread.join(timeout=5.0)


class TestStudySpec:
    def test_payload_round_trip_every_kind(self):
        for kind, spec in all_study_specs().items():
            payload = spec.to_payload()
            assert StudySpec.from_payload(payload) == spec, kind
            # Wire payloads are pure JSON.
            assert json.loads(json.dumps(payload)) == payload, kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown study kind"):
            StudySpec(kind="voodoo")
        with pytest.raises(SchemaError, match="request \"type\" must be") \
                as error:
            StudySpec.from_payload({"type": "voodoo"})
        assert error.value.field == "type"

    def test_batch_points_accept_designs_records_and_specs(self):
        stacked = stacked_design()
        spec = StudySpec.batch([
            stacked,
            {"design": {"name": "x"}, "workload": "none"},
            StudySpec.evaluate(stacked, label="pt", backend="act"),
        ])
        assert len(spec.points) == 3
        assert spec.points[1]["workload"] == "none"
        assert spec.points[2]["backend"] == "act"
        with pytest.raises(ParameterError, match="at least one point"):
            StudySpec.batch([])

    def test_default_backend_fills_only_unset(self):
        from tests.test_study_signatures import Recorder

        stacked = stacked_design()
        recorder = Recorder()
        session = Session(executor="service", client=recorder, backend="act")
        session.evaluate(stacked)
        session.evaluate(stacked, backend="lca")
        session.batch([stacked, StudySpec.evaluate(stacked, backend="lca")])
        compare = StudySpec.compare(stacked)
        session.run(compare)
        evaluate, explicit, batch, sent = [
            payload for _, payload in recorder.sent
        ]
        assert evaluate["backend"] == "act"
        assert explicit["backend"] == "lca"
        assert [point.get("backend") for point in batch["points"]] == \
            ["act", "lca"]
        assert sent == compare.to_payload()


class TestLocalServiceParity:
    def test_every_study_kind_bit_identical(self, service_session):
        """The PR's acceptance criterion, end to end."""
        local = Session()
        for kind, spec in all_study_specs().items():
            local_payload = local.run(spec).to_payload()
            served_payload = service_session.run(spec).to_payload()
            assert local_payload == served_payload, kind

    def test_streamed_and_enveloped_sweep_agree(self, service_session):
        spec = all_study_specs()["sweep"]
        streamed = service_session.submit(spec).result()
        local = Session().run(spec)
        assert streamed.to_payload() == local.to_payload()

    def test_streamed_and_enveloped_optimize_agree(self, service_session):
        """The tentpole's wire parity: the NDJSON ``/optimize`` stream's
        final snapshot assembles to the very payload the envelope
        returns, and both match the local engine bit for bit."""
        spec = all_study_specs()["optimize"]
        local = Session().run(spec).to_payload()
        handle = service_session.submit(spec)
        snapshots = [r.to_payload() for r in handle.partial()]
        assert handle.result().to_payload() == local
        assert service_session.run(spec).to_payload() == local
        # One running-front snapshot per evaluated chunk, cumulative.
        assert [s["chunk"] for s in snapshots] == list(
            range(1, local["chunks"] + 1)
        )
        assert snapshots[-1]["front"] == local["front"]

    def test_schema_errors_are_location_transparent(self, service_session):
        from repro.io.designs import design_to_dict

        payload = {"schema": 1, "type": "montecarlo",
                   "design": design_to_dict(stacked_design()), "samples": 1}
        local_error = service_error = None
        try:
            Session().run(payload)
        except Exception as error:
            local_error = error
        try:
            service_session.run(payload)
        except Exception as error:
            service_error = error
        # Same typed complaint either way (the service wraps it in a
        # ServiceError carrying the original type name).
        assert "samples" in str(local_error)
        assert "samples" in str(service_error)
        assert type(local_error).__name__ == service_error.error_type

    def test_usage_agrees_local_and_remote(self, service_session):
        """``Session.usage()`` answers in one shape on either executor,
        with the same work counts for the same studies. The server also
        bills each ``GET /usage`` as a request and counts the bytes it
        sent; a local session has no wire, so its ``bytes_out`` stays 0."""
        answers = []
        with Session() as local:
            for session in (local, service_session):
                session.usage()
                session.run(StudySpec.batch(
                    [stacked_design(), reference_design(), stacked_design()]
                ))
                session.run(StudySpec.evaluate(stacked_design()))
                answers.append(session.usage())
        local_answer, remote_answer = answers
        local_usage, remote_usage = (a["usage"] for a in answers)
        assert local_answer["tenant"] == remote_answer["tenant"] \
            == ANONYMOUS_TENANT
        assert tuple(local_usage) == tuple(remote_usage) == USAGE_FIELDS
        work = ("points", "computed", "store_hits", "errors",
                "quota_rejected")
        assert {name: local_usage[name] for name in work} \
            == {name: remote_usage[name] for name in work} \
            == {"points": 4, "computed": 3, "store_hits": 0, "errors": 0,
                "quota_rejected": 0}
        assert (local_usage["requests"], remote_usage["requests"]) == (2, 3)
        assert local_usage["bytes_out"] == 0 < remote_usage["bytes_out"]
        # An open server reports every tenant; a store-less local session
        # has no ledger to aggregate.
        assert remote_answer["tenants"] == {ANONYMOUS_TENANT: remote_usage}
        assert local_answer["tenants"] == {}


class TestSessionResults:
    def test_result_accessors(self):
        session = Session()
        point = session.evaluate(stacked_design())
        assert point.total_kg == pytest.approx(
            point.embodied_kg + point.operational_kg
        )
        assert point.valid is True
        assert point["integration"] == "hybrid_3d"
        assert point.get("missing", 42) == 42
        assert "kg CO2e" in point.summary()

    def test_resultset_access_by_label_and_index(self):
        session = Session()
        result = session.sweep(
            reference_design(), integrations=["2d", "mcm"], workload="none"
        )
        assert len(result) == 2
        assert result.labels == ["2d@taiwan", "mcm@taiwan"]
        assert result["mcm@taiwan"].payload == result[1].payload
        with pytest.raises(KeyError):
            result["nope"]
        assert all(total > 0 for total in result.totals_kg)

    def test_session_default_backend(self):
        session = Session(backend="act")
        report = session.evaluate(stacked_design(), workload="none")
        assert report["backend"] == "act"

    def test_monte_carlo_return_samples(self):
        session = Session()
        result = session.monte_carlo(
            stacked_design(), samples=16, return_samples=True
        )
        assert len(result["samples_kg"]) == 16

    def test_local_session_rejects_service_arguments(self):
        with pytest.raises(ParameterError, match="service"):
            Session(url="http://example.invalid")
        with pytest.raises(ParameterError, match="local"):
            Session(executor="service", store_path="x.sqlite3")
        with pytest.raises(ParameterError, match="executor"):
            Session(executor="carrier-pigeon")

    def test_service_session_has_no_native_path(self, service_session):
        with pytest.raises(ParameterError, match="local"):
            service_session.report(stacked_design())
        with pytest.raises(ParameterError, match="local"):
            _ = service_session.evaluator

    def test_sync_run_of_stream_spec_returns_envelope(
        self, service_session
    ):
        """A ``stream: true`` spec run synchronously must not choke on
        NDJSON — ``run()`` strips the transport flag (submit streams)."""
        payload = StudySpec.batch([stacked_design()]).to_payload()
        payload["stream"] = True
        result = service_session.run(payload)
        assert isinstance(result, ResultSet)
        assert len(result) == 1

    def test_concurrent_submits_share_one_dispatcher(self, tmp_path):
        session = Session(store_path=str(tmp_path / "store.sqlite3"))
        handles = [
            session.submit(StudySpec.batch([stacked_design()]))
            for _ in range(4)
        ]
        for handle in handles:
            assert len(handle.result()) == 1
        # The lazy-init race guard: every worker thread must have landed
        # on the same dispatcher (and the same store handle).
        assert session.dispatcher.stats.requests == 4

    def test_service_session_rejects_client_plus_url(self, service_session):
        with pytest.raises(ParameterError, match="not both"):
            Session(executor="service", client=service_session.client,
                    url="http://other.invalid")

    def test_local_store_serves_across_sessions(self, tmp_path):
        store = str(tmp_path / "store.sqlite3")
        with Session(store_path=store) as first:
            a = first.evaluate(stacked_design())
            assert a.cache == "computed"
        with Session(store_path=store) as second:
            b = second.evaluate(stacked_design())
        assert b.cache == "store"
        assert b.to_payload() == a.to_payload()


class TestStudyHandle:
    def test_partial_streams_in_order_local_and_service(
        self, service_session
    ):
        spec = StudySpec.sweep(
            reference_design(),
            integrations=["2d", "hybrid_3d", "mcm", "emib"],
            workload="none",
        )
        for session in (Session(), service_session):
            handle = session.submit(spec)
            seen = list(handle.partial())
            assert [point.index for point in seen] == [0, 1, 2, 3]
            assert [point.label for point in seen] == [
                "2d@taiwan", "hybrid_3d@taiwan", "mcm@taiwan", "emib@taiwan",
            ]
            result = handle.result()
            assert handle.done()
            assert isinstance(result, ResultSet)
            assert [r.payload for r in result] == \
                [p.payload for p in seen]

    def test_partial_complete_after_done(self):
        session = Session()
        handle = session.submit(StudySpec.batch(
            [stacked_design(), reference_design()]
        ))
        handle.result()  # wait for completion first
        replay = list(handle.partial())  # late iterator sees everything
        assert len(replay) == 2
        assert all(isinstance(point, Result) for point in replay)

    def test_single_result_kinds_yield_once(self):
        session = Session()
        handle = session.submit(StudySpec.monte_carlo(
            stacked_design(), samples=8
        ))
        values = list(handle.partial())
        assert len(values) == 1
        assert values[0].payload == handle.result().payload

    def test_failed_study_raises_study_error(self):
        session = Session()
        handle = session.submit({
            "schema": 1, "type": "evaluate",
            "design": {"name": "broken", "integration": "warp_drive",
                       "dies": []},
        })
        with pytest.raises(StudyError):
            handle.result()
        with pytest.raises(StudyError):
            list(handle.partial())
        assert handle.done()

    def test_result_timeout(self):
        # The study is held until result(timeout=0.0) has raised, so the
        # timeout never races the study finishing first.
        session = Session()
        release = threading.Event()
        run = session.run

        def held_run(study):
            assert release.wait(timeout=60.0)
            return run(study)

        session.run = held_run
        handle = session.submit(StudySpec.monte_carlo(
            stacked_design(), samples=64
        ))
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.0)
        assert not handle.done()
        release.set()
        assert handle.result(timeout=60.0) is not None


class TestTokenAuth:
    @pytest.fixture()
    def secured(self, tmp_path):
        """A server enforcing one issued token → ``(server, secret)``."""
        server = make_server(tokens_path=str(tmp_path / "tokens.sqlite3"))
        secret, _ = server.tokens.issue("api-tests", "anonymous")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server, secret
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_missing_token_is_typed_401(self, secured):
        server, _ = secured
        session = Session(executor="service", url=server.url)
        with pytest.raises(ServiceError) as excinfo:
            session.evaluate(stacked_design())
        assert excinfo.value.status == 401
        assert excinfo.value.error_type == "AuthError"

    def test_wrong_token_is_401_and_stats_protected(self, secured):
        server, secret = secured
        for wrong in ("*******", secret[:-1] + "x"):
            client = ServiceClient(server.url, token=wrong)
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
            assert excinfo.value.status == 401

    def test_healthz_stays_open(self, secured):
        server, _ = secured
        health = ServiceClient(server.url).healthz()
        assert health["status"] == "ok"
        assert health["auth"] is True

    def test_matching_token_serves_every_kind(self, secured):
        server, secret = secured
        session = Session(executor="service", url=server.url, token=secret)
        local = Session()
        spec = StudySpec.evaluate(stacked_design())
        assert session.run(spec).to_payload() == local.run(spec).to_payload()
        # Streaming passes the token too.
        handle = session.submit(StudySpec.batch([stacked_design()]))
        assert len(list(handle.partial())) == 1


class TestClientRetries:
    def _flaky_send(self, monkeypatch, failures: "list[Exception]"):
        """Patch the transport seam to raise queued failures, then pass."""
        calls = {"n": 0}
        real = ServiceClient._send

        def fake(self, conn, method, path, body, headers):
            calls["n"] += 1
            if failures:
                raise failures.pop(0)
            return real(self, conn, method, path, body, headers)

        monkeypatch.setattr(ServiceClient, "_send", fake)
        return calls

    def test_get_retries_any_transport_error(
        self, service_session, monkeypatch
    ):
        client = service_session.client
        client.backoff_s = 0.001
        calls = self._flaky_send(monkeypatch, [
            OSError("temporarily unreachable"),
            ConnectionRefusedError("refused"),
        ])
        assert client.healthz()["status"] == "ok"
        assert calls["n"] == 3

    def test_post_retries_connection_refused_only(
        self, service_session, monkeypatch
    ):
        client = service_session.client
        client.backoff_s = 0.001
        calls = self._flaky_send(monkeypatch, [
            ConnectionRefusedError("warming up"),
        ])
        envelope = client.evaluate(stacked_design())
        assert envelope["result"]["total_kg"] > 0
        assert calls["n"] == 2

        calls = self._flaky_send(monkeypatch, [
            OSError("mid-flight failure"),
        ])
        with pytest.raises(ServiceError, match="cannot reach"):
            client.evaluate(stacked_design())
        assert calls["n"] == 1  # a non-refused POST must not resend

    def test_retry_budget_is_bounded(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", retries=2,
                               backoff_s=0.001)
        calls = self._flaky_send(monkeypatch, [
            ConnectionRefusedError("down") for _ in range(10)
        ])
        with pytest.raises(ServiceError, match="cannot reach"):
            client.evaluate(stacked_design())
        assert calls["n"] == 3  # first try + 2 retries, then give up

    def test_stale_pooled_socket_reconnects_free(self, service_session):
        """A server-closed keep-alive socket costs no retry attempt."""
        import socket as socket_mod

        client = service_session.client
        assert client.healthz()["status"] == "ok"  # park a pooled conn
        assert len(client.pool._idle) >= 1
        # Sever the pooled socket the way a restarting server would:
        # shutdown makes the next reuse fail with a stale-socket error
        # (broken pipe / empty status line), not a fresh-connect error.
        for conn in client.pool._idle:
            if conn.sock is not None:
                conn.sock.shutdown(socket_mod.SHUT_RDWR)
        before = client.retries
        client.retries = 0  # stale-socket recovery must not need retries
        try:
            envelope = client.evaluate(stacked_design())
        finally:
            client.retries = before
        assert envelope["result"]["total_kg"] > 0

    def test_keep_alive_reuses_one_connection(self, service_session):
        client = service_session.client
        client.healthz()
        assert len(client.pool._idle) == 1
        conn = client.pool._idle[0]
        client.healthz()
        assert client.pool._idle == [conn]  # same socket, round-tripped
