"""End-to-end service tests: HTTP round-trips, restart persistence.

The acceptance scenario of the service PR lives here: submitting the
CLI's documented design JSON over HTTP returns a report bit-identical to
``CarbonModel.evaluate``, and killing/restarting the server serves the
same request from the persistent store (hits increment, nothing
re-resolves).
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.model import CarbonModel
from repro.core.operational import Workload
from repro.io.designs import design_from_dict
from repro.seeds import DEFAULT_SEED
from repro.service import ServiceClient, ServiceError, make_server


def design_payload(name="cli_chip", gates=17e9) -> dict:
    """The design JSON schema the CLI documents."""
    return {
        "name": name,
        "integration": "hybrid_3d",
        "stacking": "f2f",
        "assembly": "d2w",
        "package": {"class": "fcbga"},
        "throughput_tops": 254.0,
        "dies": [
            {"name": "top", "node": "7nm", "gate_count": gates / 2,
             "workload_share": 0.5},
            {"name": "bottom", "node": "7nm", "gate_count": gates / 2,
             "workload_share": 0.5},
        ],
    }


@pytest.fixture()
def service(tmp_path):
    """A running server (persistent store in tmp) + client, torn down after."""
    server = make_server(store_path=str(tmp_path / "store.sqlite3"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServiceClient(server.url)
    finally:
        server.close()
        thread.join(timeout=5.0)


class TestRoundTrip:
    def test_evaluate_bit_identical_to_carbon_model(self, service):
        _, client = service
        envelope = client.evaluate(design_payload())
        reference = CarbonModel(
            design_from_dict(design_payload()), fab_location="taiwan"
        ).evaluate(Workload.autonomous_vehicle())
        # JSON round-trip the reference exactly as the wire does.
        assert envelope["result"] == json.loads(
            json.dumps(reference.to_dict())
        )
        assert envelope["cache"] == "computed"

    def test_repeat_served_from_store(self, service):
        _, client = service
        first = client.evaluate(design_payload())
        second = client.evaluate(design_payload())
        assert second["cache"] == "store"
        assert second["result"] == first["result"]

    def test_workload_none(self, service):
        _, client = service
        envelope = client.evaluate(design_payload(), workload="none")
        assert "operational_kg" not in envelope["result"]

    def test_fab_location_changes_result(self, service):
        _, client = service
        taiwan = client.evaluate(design_payload())["result"]
        iceland = client.evaluate(
            design_payload(), fab_location="iceland"
        )["result"]
        assert iceland["embodied_kg"] < taiwan["embodied_kg"]

    def test_healthz(self, service):
        _, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert "/evaluate" in health["endpoints"]

    def test_stats_counts_layers(self, service):
        _, client = service
        client.evaluate(design_payload())
        client.evaluate(design_payload())
        stats = client.stats()
        assert stats["dispatcher"]["computed"] == 1
        assert stats["store"]["hits"] == 1
        assert stats["engine"]["points_evaluated"] == 1


class TestRestartPersistence:
    def test_cold_restart_serves_from_store(self, tmp_path):
        """The PR's acceptance criterion, end to end."""
        store_path = str(tmp_path / "store.sqlite3")

        server = make_server(store_path=store_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.url)
        first = client.evaluate(design_payload())
        assert first["cache"] == "computed"
        server.close()
        thread.join(timeout=5.0)

        # Kill → restart on the same store file: fresh engine, warm store.
        server = make_server(store_path=store_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.url)
        try:
            second = client.evaluate(design_payload())
            assert second["cache"] == "store"
            assert second["result"] == first["result"]   # bit-identical
            stats = client.stats()
            assert stats["store"]["hits"] == 1           # hit incremented
            assert stats["engine"]["resolve_misses"] == 0  # no re-resolve
            assert stats["engine"]["points_evaluated"] == 0
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_restart_serves_a_whole_request_mix_from_store(self, tmp_path):
        """24 distinct evaluates and 8 400-draw Monte-Carlo summaries: a
        restarted server on the same store answers every one from the
        store with the cold pass's payload, and its engine does no work."""
        store_path = str(tmp_path / "store.sqlite3")
        designs = [
            design_payload(f"mix_{i}", 17e9 * (1 + 0.01 * i))
            for i in range(24)
        ]
        requests = [("evaluate", {"design": design}) for design in designs]
        requests += [
            ("montecarlo", {"design": design, "samples": 400,
                            "seed": DEFAULT_SEED + i})
            for i, design in enumerate(designs[:8])
        ]

        def serve_all():
            server = make_server(store_path=store_path)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            client = ServiceClient(server.url)
            try:
                answers = [
                    getattr(client, kind)(**kwargs) for kind, kwargs in requests
                ]
                return answers, client.stats()
            finally:
                client.close()
                server.close()
                thread.join(timeout=5.0)

        cold, cold_stats = serve_all()
        warm, warm_stats = serve_all()
        assert [a["result"] for a in warm] == [a["result"] for a in cold]
        assert [a["cache"] for a in cold] == ["computed"] * 32
        assert [a["cache"] for a in warm] == ["store"] * 32
        # 24 evaluates + 8 × (base + 400 draws) points, all on the cold
        # pass; the warm pass reads 32 rows and prices nothing.
        assert cold_stats["engine"]["points_evaluated"] == 3232
        assert (warm_stats["store"]["hits"], warm_stats["store"]["misses"]) \
            == (32, 0)
        assert warm_stats["dispatcher"]["computed"] == 0
        assert set(warm_stats["engine"].values()) == {0}


class TestBatchAndSweep:
    def test_batch_dedup_and_order(self, service):
        _, client = service
        points = [
            {"design": design_payload("a"), "label": "p0"},
            {"design": design_payload("b")},
            {"design": design_payload("a"), "label": "p2"},  # duplicate of p0
        ]
        envelope = client.batch(points)
        rows = envelope["result"]
        assert [row["label"] for row in rows] == ["p0", None, "p2"]
        assert rows[0]["report"] == rows[2]["report"]
        stats = client.stats()
        assert stats["dispatcher"]["deduplicated"] == 1
        assert stats["dispatcher"]["computed"] == 2

    def test_sweep_grid(self, service):
        _, client = service
        reference = {
            "name": "ref", "throughput_tops": 254.0,
            "dies": [{"name": "d", "node": "7nm", "gate_count": 17e9,
                      "efficiency_tops_per_w": 2.74}],
        }
        envelope = client.sweep(
            reference, integrations=["2d", "hybrid_3d"],
            fab_locations=["taiwan", "iceland"],
        )
        rows = envelope["result"]
        assert len(rows) == 4
        assert rows[0]["label"] == "2d@taiwan"
        assert {row["report"]["integration"] for row in rows} == {
            "2d", "hybrid_3d",
        }

    def test_montecarlo_summary_cached(self, service):
        _, client = service
        first = client.montecarlo(design_payload(), samples=40)
        assert first["cache"] == "computed"
        assert first["result"]["samples"] == 40
        assert first["result"]["mean_kg"] > 0
        second = client.montecarlo(design_payload(), samples=40)
        assert second["cache"] == "store"
        assert second["result"] == first["result"]
        # A different seed is a different content address.
        third = client.montecarlo(design_payload(), samples=40, seed=7)
        assert third["cache"] == "computed"


class TestCoalescing:
    def test_concurrent_identical_points_compute_once(self, tmp_path):
        server = make_server(store_path=None)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.url)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                envelopes = list(pool.map(
                    lambda _: client.evaluate(design_payload()), range(8)
                ))
            results = [e["result"] for e in envelopes]
            assert all(result == results[0] for result in results)
            # Without a store every response is computed or coalesced;
            # the engine only ever saw one distinct point.
            assert server.dispatcher.evaluator.stats.resolve_misses == 1
        finally:
            server.close()
            thread.join(timeout=5.0)


class TestErrors:
    def test_malformed_json_is_400_schema_error(self, service):
        server, _ = service
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/evaluate", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["type"] == "SchemaError"

    def test_bad_design_value_is_typed_error(self, service):
        _, client = service
        bad = design_payload()
        bad["stacking"] = "sideways"
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(bad)
        assert excinfo.value.error_type == "DesignError"
        assert excinfo.value.status == 400

    def test_unknown_node_is_typed_error(self, service):
        _, client = service
        bad = design_payload()
        bad["dies"][0]["node"] = "9nm"
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(bad)
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, service):
        server, _ = service
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/nope", data=b"{}",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("budget", ["nan", "inf", "1e300"])
    def test_unbounded_deadline_header_is_400(self, service, budget):
        server, _ = service
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/evaluate",
            data=json.dumps({"schema": 1, "type": "evaluate",
                             "design": design_payload()}).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "X-Carbon3D-Deadline-Ms": budget},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["type"] == "SchemaError"
        assert "X-Carbon3D-Deadline-Ms" in error["message"]
        assert repr(budget) in error["message"]

    def test_close_before_serve_does_not_deadlock(self):
        server = make_server()
        server.close()                      # never entered serve_forever

    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    @pytest.mark.parametrize("verbose", [False, True])
    def test_handle_error_logs_one_line_per_escaped_error(
        self, capsys, verbose
    ):
        """A client disconnect logs nothing; any other error that escapes
        a request logs one ``[carbon3d] request error`` line, with the
        traceback only on a verbose server."""
        server = make_server(verbose=verbose)
        peer = ("127.0.0.1", 50000)
        try:
            try:
                raise ConnectionResetError("peer went away")
            except ConnectionError:
                server.handle_error(None, peer)
            assert capsys.readouterr().err == ""
            try:
                raise ValueError("boom")
            except ValueError:
                server.handle_error(None, peer)
            err = capsys.readouterr().err
        finally:
            server.close()
        if verbose:
            assert "Traceback" in err and "ValueError: boom" in err
        else:
            assert err == (
                f"[carbon3d] request error from {peer}: ValueError: boom\n"
            )


class TestDispatcherParamsPinning:
    def test_caller_evaluator_with_other_params_cannot_poison_store(self):
        """Content keys fingerprint the dispatcher's params, so compute
        must run under those same params even on a shared evaluator."""
        from repro.config.parameters import DEFAULT_PARAMETERS
        from repro.engine import BatchEvaluator
        from repro.service.dispatcher import Dispatcher
        from repro.service.schema import parse_evaluate_request
        from repro.service.store import ResultStore

        other = DEFAULT_PARAMETERS.with_node_override(
            "7nm", defect_density_per_cm2=0.5
        )
        dispatcher = Dispatcher(
            store=ResultStore(":memory:"),
            evaluator=BatchEvaluator(params=other),
        )
        request = parse_evaluate_request({
            "schema": 1, "type": "evaluate", "design": design_payload(),
        })
        result, _ = dispatcher.evaluate(request)
        reference = CarbonModel(
            design_from_dict(design_payload()), fab_location="taiwan"
        ).evaluate(Workload.autonomous_vehicle())
        assert result == json.loads(json.dumps(reference.to_dict()))

    def test_plugin_evaluators_rejected(self):
        from repro.engine import BatchEvaluator
        from repro.errors import ParameterError
        from repro.service.dispatcher import Dispatcher

        with pytest.raises(ParameterError, match="plugin"):
            Dispatcher(
                evaluator=BatchEvaluator(efficiency_plugin=lambda *a: None)
            )


class TestBackendRouting:
    """The backend dimension end to end: routing, store keys, errors."""

    def test_baseline_backend_round_trip(self, service):
        from repro.pipeline import get_backend

        _, client = service
        envelope = client.evaluate(design_payload(), backend="act")
        direct = get_backend("act").evaluate(
            design_from_dict(design_payload()),
            fab_location="taiwan",
            workload=Workload.autonomous_vehicle(),
        )
        assert envelope["result"] == json.loads(
            json.dumps(direct.to_dict())
        )
        assert envelope["result"]["backend"] == "act"

    def test_store_keys_differ_per_backend(self, service):
        _, client = service
        first = client.evaluate(design_payload(), backend="act")
        other = client.evaluate(design_payload(), backend="first_order")
        assert first["cache"] == other["cache"] == "computed"
        assert first["result"]["total_kg"] != other["result"]["total_kg"]
        # Same backend again: served from the persistent store.
        again = client.evaluate(design_payload(), backend="act")
        assert again["cache"] == "store"
        assert again["result"] == first["result"]

    def test_default_payload_shape_unchanged(self, service):
        """No backend field → the classic CarbonModel payload (no tag)."""
        _, client = service
        envelope = client.evaluate(design_payload())
        assert "backend" not in envelope["result"]

    def test_unknown_backend_is_400_typed_payload(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(design_payload(), backend="gabi")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "BackendError"
        assert excinfo.value.payload["field"] == "backend"

    def test_sweep_with_backend(self, service):
        _, client = service
        design = {
            "name": "flat", "integration": "2d",
            "package": {"class": "fcbga"}, "throughput_tops": 254.0,
            "dies": [{"name": "d", "node": "7nm", "gate_count": 17e9,
                      "workload_share": 1.0}],
        }
        envelope = client.sweep(
            design, integrations=["2d", "mcm"], backend="lca"
        )
        assert [e["report"]["backend"] for e in envelope["result"]] \
            == ["lca", "lca"]

    def test_healthz_lists_backends(self, service):
        _, client = service
        assert client.healthz()["backends"] == [
            "repro3d", "act", "act_plus", "lca", "first_order"
        ]


class TestMonteCarloSamples:
    def test_return_samples_round_trips_through_store(self, tmp_path):
        from repro.analysis.uncertainty import monte_carlo

        store = str(tmp_path / "store.sqlite3")
        reference = monte_carlo(
            design_from_dict(design_payload()),
            workload=Workload.autonomous_vehicle(),
            samples=24, seed=7,
        )

        def one_pass():
            server = make_server(store_path=store)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                client = ServiceClient(server.url)
                return client.montecarlo(
                    design_payload(), samples=24, seed=7,
                    return_samples=True,
                )
            finally:
                server.close()
                thread.join(timeout=5.0)

        cold = one_pass()
        warm = one_pass()  # restarted server: must come from the store
        assert cold["cache"] == "computed" and warm["cache"] == "store"
        assert cold["result"] == warm["result"]
        assert cold["result"]["samples_kg"] == list(reference.samples_kg)

    def test_summary_and_samples_are_distinct_entries(self, service):
        _, client = service
        summary = client.montecarlo(design_payload(), samples=16, seed=3)
        full = client.montecarlo(
            design_payload(), samples=16, seed=3, return_samples=True
        )
        assert "samples_kg" not in summary["result"]
        assert len(full["result"]["samples_kg"]) == 16
        # A stored summary must never serve a samples request: both were
        # computed, under different content keys.
        assert summary["cache"] == full["cache"] == "computed"
        for key in ("mean_kg", "std_kg", "p95_kg"):
            assert summary["result"][key] == full["result"][key]

    def test_montecarlo_backend_prices_draws_under_that_model(self, service):
        _, client = service
        act = client.montecarlo(
            design_payload(), samples=16, seed=3, backend="act"
        )["result"]
        repro = client.montecarlo(
            design_payload(), samples=16, seed=3
        )["result"]
        assert act["backend"] == "act"
        assert act["mean_kg"] != repro["mean_kg"]


class TestCompareRoute:
    def test_compare_matches_local_study(self, service):
        from repro.studies.validation import compare_backends

        _, client = service
        result = client.compare(design_payload())["result"]
        local = compare_backends(
            design_from_dict(design_payload()), fab_location="taiwan"
        )
        assert [row["backend"] for row in result["backends"]] == [
            entry.backend for entry in local.reports
        ]
        for row, entry in zip(result["backends"], local.reports):
            assert row["report"]["total_kg"] == entry.total_kg
        assert "uncertainty" not in result["backends"][0]

    def test_compare_subset_preserves_order(self, service):
        _, client = service
        result = client.compare(
            design_payload(), backends=["lca", "act"]
        )["result"]
        assert [row["backend"] for row in result["backends"]] == ["lca", "act"]

    def test_compare_with_draws_bands_per_backend(self, service):
        _, client = service
        result = client.compare(
            design_payload(), backends=["repro3d", "act"], draws=16, seed=5
        )["result"]
        bands = {
            row["backend"]: row["uncertainty"] for row in result["backends"]
        }
        assert bands["repro3d"]["samples"] == 16
        # Each backend drew from its own factor set: distinct bands.
        assert bands["repro3d"]["p50_kg"] != bands["act"]["p50_kg"]
        reference = client.montecarlo(
            design_payload(), workload="none", samples=16, seed=5,
            backend="act",
        )["result"]
        assert bands["act"]["p50_kg"] == reference["p50_kg"]

    def test_compare_bands_served_from_store_on_repeat(self, service):
        _, client = service
        first = client.compare(
            design_payload(), backends=["lca"], draws=12
        )["result"]
        again = client.compare(
            design_payload(), backends=["lca"], draws=12
        )["result"]
        assert first["backends"][0]["uncertainty_cache"] == "computed"
        assert again["backends"][0]["uncertainty_cache"] == "store"
        assert (
            first["backends"][0]["uncertainty"]
            == again["backends"][0]["uncertainty"]
        )

    def test_compare_shares_store_with_montecarlo_route(self, service):
        _, client = service
        client.montecarlo(
            design_payload(), workload="none", samples=12, seed=7,
            backend="lca",
        )
        result = client.compare(
            design_payload(), backends=["lca"], draws=12, seed=7
        )["result"]
        assert result["backends"][0]["uncertainty_cache"] == "store"

    def test_compare_unknown_backend_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.compare(design_payload(), backends=["gabi2024"])
        assert excinfo.value.status == 400

    def test_compare_rejects_single_draw(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="draws"):
            client.compare(design_payload(), draws=1)


def reference_payload() -> dict:
    """A single-die 2D reference (sweeps need one to split)."""
    return {
        "name": "stream_soc",
        "integration": "2d",
        "package": {"class": "fcbga"},
        "throughput_tops": 254.0,
        "dies": [{"name": "die", "node": "7nm", "gate_count": 17e9,
                  "workload_share": 1.0}],
    }


class TestStreaming:
    def test_stream_sweep_order_and_store_parity(self, service):
        _, client = service
        entries = list(client.stream_sweep(
            reference_payload(), integrations=["2d", "hybrid_3d", "mcm"],
            workload="none",
        ))
        assert [entry["index"] for entry in entries] == [0, 1, 2]
        assert [entry["cache"] for entry in entries] == ["computed"] * 3
        # The enveloped route now serves the very same reports from the
        # store the stream fed as each point finished.
        enveloped = client.sweep(
            reference_payload(), integrations=["2d", "hybrid_3d", "mcm"],
            workload="none",
        )["result"]
        assert [row["cache"] for row in enveloped] == ["store"] * 3
        assert [row["report"] for row in enveloped] == \
            [entry["report"] for entry in entries]

    def test_stream_batch_dedups_like_enveloped(self, service):
        _, client = service
        points = [{"design": design_payload()},
                  {"design": design_payload()}]
        entries = list(client.stream_batch(points))
        assert [entry["cache"] for entry in entries] == \
            ["computed", "computed"]
        assert entries[0]["report"] == entries[1]["report"]

    def test_stream_flag_false_keeps_envelope(self, service):
        _, client = service
        envelope = client.submit_payload({
            "type": "batch", "stream": False,
            "points": [{"design": design_payload()}],
        })
        assert envelope["ok"] is True
        assert isinstance(envelope["result"], list)

    def test_stream_invalid_request_is_typed_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream_payload({
                "type": "batch", "stream": "yes", "points": [],
            }))
        assert excinfo.value.status == 400


class TestTornadoRoute:
    def test_tornado_sorted_and_stored(self, service):
        _, client = service
        first = client.tornado(design_payload(), workload="none")
        swings = [abs(f["swing_kg"]) for f in first["result"]["factors"]]
        assert swings == sorted(swings, reverse=True)
        assert first["cache"] == "computed"
        again = client.tornado(design_payload(), workload="none")
        assert again["cache"] == "store"
        assert again["result"] == first["result"]

    def test_tornado_backend_factor_sets_differ(self, service):
        _, client = service
        ours = client.tornado(design_payload(), workload="none")["result"]
        act = client.tornado(
            design_payload(), workload="none", backend="act"
        )["result"]
        assert act["backend"] == "act"
        assert {f["factor"] for f in act["factors"]} != \
            {f["factor"] for f in ours["factors"]}

    def test_tornado_matches_in_process_study(self, service):
        _, client = service
        from repro.analysis.sensitivity import tornado

        served = client.tornado(design_payload(), workload="none")["result"]
        local = tornado(design_from_dict(design_payload()), workload=None)
        assert [f["factor"] for f in served["factors"]] == \
            [r.factor for r in local]
        assert served["factors"][0]["swing_kg"] == \
            pytest.approx(local[0].swing_kg)
