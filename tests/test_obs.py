"""Observability tests: metrics primitives, tracing, and correlation.

The acceptance scenario of the observability PR lives here: one trace id
correlates the client's ``X-Carbon3D-Trace-Id`` header, the server's
JSON log record, the response envelope, and an NDJSON stream's framing
lines — while ``GET /metrics`` exposes dispatcher/store/engine/breaker
signals as valid Prometheus text and ``DispatchStats`` counts exactly
under concurrent increments.
"""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Session, StudySpec
from repro.engine import BatchEvaluator, EvalPoint
from repro.io.designs import design_from_dict
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import JsonRequestLog
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service import ServiceClient, make_server
from repro.service.dispatcher import Dispatcher, DispatchStats


def design_payload(name="obs_chip", gates=17e9) -> dict:
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


# -- metrics primitives -------------------------------------------------------


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_labels_are_independent_children(self):
        counter = Counter("c_total", "help")
        counter.labels(kind="a").inc()
        counter.labels(kind="a").inc()
        counter.labels(kind="b").inc()
        assert counter.labels(kind="a").value == 2
        assert counter.labels(kind="b").value == 1

    def test_function_counter_samples_at_read(self):
        box = {"n": 7}
        counter = Counter("c_total", "help")
        counter.set_function(lambda: box["n"])
        assert counter.value == 7
        box["n"] = 9
        assert counter.value == 9

    def test_function_counter_swallows_errors(self):
        counter = Counter("c_total", "help")
        counter.set_function(lambda: 1 / 0)
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g", "help")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 11


class TestHistogram:
    def test_summary_percentiles(self):
        hist = Histogram("h_seconds", "help")
        for _ in range(90):
            hist.observe(0.001)
        for _ in range(10):
            hist.observe(0.5)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["p50"] <= 0.005
        assert summary["p99"] >= 0.1
        assert summary["min"] <= summary["p50"] <= summary["p99"]

    def test_timer_context_manager(self):
        hist = Histogram("h_seconds", "help")
        with hist.time():
            pass
        assert hist.summary()["count"] == 1


class TestRegistry:
    def test_idempotent_registration(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        again = registry.counter("x_total", "help")
        assert first is again

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests").inc(3)
        registry.gauge("temp", "temperature").set(1.5)
        hist = registry.histogram("lat_seconds", "latency")
        hist.observe(0.01)
        text = registry.render_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert "req_total 3" in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_snapshot_has_histogram_summaries(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "latency").observe(0.01)
        snap = registry.snapshot()
        assert snap["lat_seconds"]["count"] == 1
        assert "p99" in snap["lat_seconds"]


# -- DispatchStats: atomic counters ------------------------------------------


class TestDispatchStatsAtomicity:
    def test_concurrent_increments_count_exactly(self):
        stats = DispatchStats()
        threads, per_thread = 8, 2000

        def hammer():
            for _ in range(per_thread):
                stats.inc("requests")
                stats.inc("points", 2)

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert stats.requests == threads * per_thread
        assert stats.points == threads * per_thread * 2

    def test_attribute_writes_are_rejected(self):
        # The unlocked `stats.requests += 1` pattern raced; __slots__
        # forces every write through the atomic inc().
        stats = DispatchStats()
        with pytest.raises(AttributeError):
            stats.requests = 5

    def test_as_dict_round_trip(self):
        stats = DispatchStats()
        stats.inc("errors", 3)
        data = stats.as_dict()
        assert data["errors"] == 3
        assert set(data) == set(DispatchStats.FIELDS)


# -- tracing ------------------------------------------------------------------


class TestTrace:
    def test_span_is_noop_without_active_trace(self):
        before = len(obs_trace.collector.trace_ids())
        with obs_trace.span("orphan") as span:
            assert span is None
        assert len(obs_trace.collector.trace_ids()) == before

    def test_nested_spans_share_trace_and_parent(self):
        with obs_trace.trace("root") as root:
            with obs_trace.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        spans = obs_trace.collector.spans(root.trace_id)
        assert sorted(s.name for s in spans) == ["child", "root"]

    def test_explicit_trace_id_adopted(self):
        with obs_trace.trace("root", trace_id="feedbeef" * 4) as root:
            assert root.trace_id == "feedbeef" * 4

    def test_render_tree_and_breakdown(self):
        with obs_trace.trace("root") as root:
            with obs_trace.span("stage.work", backend="x"):
                pass
        spans = obs_trace.collector.spans(root.trace_id)
        tree = obs_trace.render_tree(spans)
        assert "root" in tree and "stage.work" in tree
        breakdown = obs_trace.stage_breakdown(spans)
        assert breakdown["stage.work"]["count"] == 1
        assert breakdown["root"]["self_s"] <= breakdown["root"]["total_s"]

    def test_batch_stage_spans_join_the_callers_trace(self):
        """``evaluate_many`` runs every point on the caller's thread, so
        each stage span lands in the caller's trace, under a span of it."""
        points = [
            EvalPoint(design=design_from_dict(
                design_payload(f"batch_{i}", 16e9 + i * 1e8)
            ))
            for i in range(4)
        ]
        with obs_trace.trace("serial-batch") as root:
            BatchEvaluator().evaluate_many(points)
        spans = obs_trace.collector.spans(root.trace_id)
        stage_spans = [s for s in spans if s.name.startswith("stage.")]
        assert len(stage_spans) >= len(points)
        ids = {s.span_id for s in spans}
        assert all(s.trace_id == root.trace_id for s in stage_spans)
        assert all(s.parent_id in ids for s in stage_spans)


# -- server correlation: header -> log -> envelope -> stream ------------------


@pytest.fixture()
def obs_service(tmp_path):
    """A running server with a captured JSON request log."""
    log_stream = io.StringIO()
    server = make_server(
        store_path=str(tmp_path / "store.sqlite3"),
        request_log=JsonRequestLog(log_stream),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServiceClient(server.url), log_stream
    finally:
        server.close()
        thread.join(timeout=5.0)


def log_records(stream: io.StringIO, expect: int = 1) -> list:
    # The server logs *after* writing the response body, so the client
    # can observe the reply a beat before the record lands.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        lines = stream.getvalue().splitlines()
        if len(lines) >= expect:
            break
        time.sleep(0.01)
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestTraceCorrelation:
    def test_trace_id_spans_client_log_and_envelope(self, obs_service):
        _, client, log_stream = obs_service
        with obs_trace.trace("correlate") as root:
            envelope = client.evaluate(design_payload())
        assert envelope["trace_id"] == root.trace_id
        records = log_records(log_stream)
        assert [r["trace_id"] for r in records] == [root.trace_id]
        record = records[0]
        assert record["route"] == "/evaluate"
        assert record["status"] == 200
        assert record["duration_ms"] >= 0
        assert record["cache"] == "computed"

    def test_client_spans_split_the_request(self, obs_service):
        _, client, _ = obs_service
        with obs_trace.trace("client_spans") as root:
            client.evaluate(design_payload("client_spans"))
        spans = obs_trace.collector.spans(root.trace_id)
        request, = [s for s in spans if s.name == "http.request /evaluate"]
        assert request.parent_id == root.span_id
        # Siblings run one after another, so they finish (and are
        # recorded) in the order they started.
        children = [s for s in spans if s.name.startswith("client.")]
        assert [s.name for s in children] == [
            "client.encode", "client.send", "client.receive",
            "client.decode",
        ]
        assert {s.parent_id for s in children} == {request.span_id}

    def test_server_mints_trace_id_without_header(self, obs_service):
        _, client, log_stream = obs_service
        envelope = client.evaluate(design_payload("minted"))
        assert envelope["trace_id"]
        assert log_records(log_stream)[0]["trace_id"] == envelope["trace_id"]

    def test_stream_framing_carries_trace_id(self, obs_service):
        server, _, _ = obs_service
        payload = {
            "schema": 1,
            "type": "batch",
            "stream": True,
            "points": [
                {"design": design_payload("s0")},
                {"design": design_payload("s1")},
            ],
        }
        sent = "ab" * 16
        request = urllib.request.Request(
            server.url + "/batch",
            data=json.dumps(payload).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                obs_trace.TRACE_HEADER: sent,
            },
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            lines = [json.loads(line) for line in response.read().splitlines()]
        header, *entries, done = lines
        assert header["trace_id"] == sent
        assert done["trace_id"] == sent
        # Per-point entries stay byte-identical to local execution.
        assert all("trace_id" not in entry for entry in entries)

    def test_sweep_stream_framing_carries_trace_id(self, obs_service):
        server, _, _ = obs_service
        payload = {
            "schema": 1,
            "type": "sweep",
            "stream": True,
            # Sweeps re-split a single-die 2D reference per integration.
            "design": {
                "name": "sw_ref",
                "integration": "2d",
                "package": {"class": "fcbga"},
                "throughput_tops": 254.0,
                "dies": [{"name": "soc", "node": "7nm",
                          "gate_count": 17e9, "workload_share": 1.0}],
            },
            "integrations": ["2d", "hybrid_3d"],
        }
        sent = "cd" * 16
        request = urllib.request.Request(
            server.url + "/sweep",
            data=json.dumps(payload).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                obs_trace.TRACE_HEADER: sent,
            },
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            lines = [json.loads(line) for line in response.read().splitlines()]
        assert lines[0]["trace_id"] == sent
        assert lines[-1]["trace_id"] == sent

    def test_error_responses_are_logged_with_type(self, obs_service):
        server, _, log_stream = obs_service
        request = urllib.request.Request(
            server.url + "/evaluate",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(request, timeout=30)
        record = log_records(log_stream)[0]
        assert record["status"] == 400
        assert record["error"]


class TestMetricsEndpoint:
    EXPECTED = (
        "carbon3d_dispatcher_requests_total",
        "carbon3d_request_duration_seconds",
        "carbon3d_engine_cache_hit_ratio",
        "carbon3d_store_entries",
        "carbon3d_breakers_open",
        "carbon3d_inflight_requests",
        "carbon3d_shed_requests_total",
    )

    def test_metrics_text_covers_every_layer(self, obs_service):
        _, client, _ = obs_service
        client.evaluate(design_payload("metrics"))
        with urllib.request.urlopen(
            client.base_url + "/metrics", timeout=30
        ) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        for name in self.EXPECTED:
            assert name in text, f"{name} missing from /metrics"
        assert "carbon3d_dispatcher_requests_total 1" in text

    def test_hit_ratio_gauge_labels_the_kept_memo_layers(self):
        snapshot = Dispatcher().metrics.snapshot()
        ratios = snapshot["carbon3d_engine_cache_hit_ratio"]
        assert sorted(ratios) == sorted(
            f'{{layer="{layer}"}}' for layer in (
                "resolve", "structure", "embodied", "bandwidth",
                "operational",
            )
        )

    def test_metrics_open_on_token_servers(self, tmp_path):
        server = make_server(
            store_path=str(tmp_path / "auth.sqlite3"),
            tokens_path=str(tmp_path / "tokens.sqlite3"),
        )
        server.tokens.issue("obs", "anonymous")
        assert server.auth_enforced
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=30
            ) as response:
                assert response.status == 200
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_stats_carries_metrics_snapshot(self, obs_service):
        _, client, log_stream = obs_service
        client.evaluate(design_payload("snap"))
        # Request duration is observed after the response is written;
        # the log record (emitted right after) marks it as landed.
        log_records(log_stream)
        stats = client.stats()
        assert stats["metrics"]["carbon3d_dispatcher_requests_total"] == 1
        series = stats["metrics"]["carbon3d_request_duration_seconds"]
        assert any("p99" in summary for summary in series.values())


# -- Session timing parity ----------------------------------------------------


class TestSessionTiming:
    def timing_for(self, session) -> dict:
        handle = session.submit(StudySpec.batch([
            {"design": design_payload("t0")},
            {"design": design_payload("t1", 18e9)},
        ]))
        handle.result(timeout=60)
        return handle.timing()

    def test_local_breakdown(self):
        with Session() as session:
            timing = self.timing_for(session)
        assert timing["trace_id"]
        assert timing["duration_s"] > 0
        assert any(
            name.startswith("stage.") for name in timing["stages"]
        ), timing["stages"]

    def test_local_vs_service_shape_parity(self, obs_service):
        server, _, _ = obs_service
        with Session() as local:
            local_timing = self.timing_for(local)
        with Session(executor="service", url=server.url) as remote:
            remote_timing = self.timing_for(remote)
        assert set(local_timing) == set(remote_timing)
        assert remote_timing["trace_id"]
        assert remote_timing["duration_s"] > 0

    def test_stats_uniform_across_executors(self, obs_service):
        server, _, _ = obs_service
        with Session() as local:
            local.evaluate(design_payload("st"))
            local_stats = local.stats()
        with Session(executor="service", url=server.url) as remote:
            remote.evaluate(design_payload("st"))
            remote_stats = remote.stats()
        for key in ("dispatcher", "engine", "metrics"):
            assert key in local_stats and key in remote_stats
        assert local_stats["dispatcher"]["requests"] >= 1
        assert remote_stats["dispatcher"]["requests"] >= 1


# -- the trace CLI ------------------------------------------------------------


class TestTraceCli:
    def test_span_tree_for_bare_design(self, tmp_path, capsys):
        from repro.cli import main

        design_file = tmp_path / "design.json"
        design_file.write_text(json.dumps(design_payload("cli_traced")))
        assert main(["trace", str(design_file)]) == 0
        out = capsys.readouterr().out
        assert "trace " in out
        assert "stage.embodied" in out
        assert "self ms" in out

    def test_wire_payload_study(self, tmp_path, capsys):
        from repro.cli import main

        study_file = tmp_path / "study.json"
        study_file.write_text(json.dumps({
            "type": "montecarlo",
            "design": design_payload("cli_mc"),
            "samples": 20,
        }))
        assert main(["trace", str(study_file)]) == 0
        out = capsys.readouterr().out
        assert "monte_carlo study" in out

    def test_serve_accepts_log_json_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--log-json"])
        assert args.log_json is True


# -- engine overhead guard ----------------------------------------------------


class TestInactiveTracingIsFree:
    def test_span_returns_shared_null_object(self):
        first = obs_trace.span("a")
        second = obs_trace.span("b")
        assert first is second

    def test_engine_without_metrics_skips_observation(self):
        evaluator = BatchEvaluator()
        observation = evaluator._observe_stage("embodied")
        with observation:
            pass
        assert observation is evaluator._observe_stage("resolve")
