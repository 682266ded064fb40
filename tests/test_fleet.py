"""Pre-forked fleet: cross-process dedup, supervision, load harness.

The tentpole guarantees under test:

* **Exactly-one-compute across processes.** Two forked workers share
  one listening socket and one SQLite store; N concurrent identical
  requests must produce exactly one ``computed`` answer — the rest come
  back ``store`` or ``coalesced`` — and every payload is bit-identical.
* **A killed worker never wedges a key.** A claim row whose owner died
  mid-compute expires after its TTL; another worker takes the claim and
  computes the same bit-identical result.
* **Supervision.** A SIGKILLed worker is reaped and its slot refilled;
  ``close()`` tears the whole fleet down without zombies.
* **Keep-alive client.** Connections round-trip through the pool and a
  server-closed pooled socket is replaced transparently.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.client import ServiceClient
from repro.service.dispatcher import Dispatcher
from repro.service.fleet import (
    MAX_DEFAULT_WORKERS,
    ServiceFleet,
    default_worker_count,
    resolve_worker_count,
)
from repro.service.loadgen import run_load
from repro.service.server import CarbonService
from repro.service.schema import parse_evaluate_request
from repro.service.store import ResultStore


def design_payload(index: int = 0) -> dict:
    gates = 17.0e9 * (1.0 + 0.01 * index)
    return {
        "name": f"fleet_chip_{index}",
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
def fleet(tmp_path):
    """A running two-worker fleet on a shared store."""
    instance = ServiceFleet(
        workers=2, store_path=str(tmp_path / "fleet.sqlite3"),
        poll_interval_s=0.05,
    )
    instance.start()
    try:
        yield instance
    finally:
        instance.close()


class TestClaims:
    """Store-level claim rows — the cross-process dedup primitive."""

    def test_claim_is_exclusive_until_released(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite3"))
        try:
            acquired, swept = store.try_claim("k", "owner-a", ttl_s=30.0)
            assert acquired and not swept
            assert store.claim_active("k")
            acquired, _ = store.try_claim("k", "owner-b", ttl_s=30.0)
            assert not acquired
            store.release_claim("k", "owner-a")
            assert not store.claim_active("k")
            acquired, swept = store.try_claim("k", "owner-b", ttl_s=30.0)
            assert acquired and not swept
        finally:
            store.close()

    def test_release_requires_matching_owner(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite3"))
        try:
            store.try_claim("k", "owner-a", ttl_s=30.0)
            store.release_claim("k", "owner-b")  # not yours to release
            assert store.claim_active("k")
        finally:
            store.close()

    def test_stale_claim_expires_and_is_swept(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite3"))
        try:
            store.try_claim("k", "dead-worker", ttl_s=0.05)
            time.sleep(0.1)
            assert not store.claim_active("k")
            acquired, swept = store.try_claim("k", "survivor", ttl_s=30.0)
            assert acquired
            assert swept  # the dead worker's row was swept on acquire
        finally:
            store.close()

    def test_peek_does_not_touch_stats_or_lru(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite3"))
        try:
            store.put("k", "\"payload\"")
            before = store.stats()
            for _ in range(5):
                assert store.peek("k") == "\"payload\""
            assert store.peek("missing") is None
            after = store.stats()
            assert after["hits"] == before["hits"]
            assert after["misses"] == before["misses"]
        finally:
            store.close()

    def test_clear_also_drops_claims(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite3"))
        try:
            store.try_claim("k", "owner", ttl_s=30.0)
            store.clear()
            assert not store.claim_active("k")
        finally:
            store.close()


class TestClaimedDispatch:
    """Dispatcher behavior layered over claims (single process)."""

    def test_failed_compute_releases_claim(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite3"))
        dispatcher = Dispatcher(store=store)
        request = parse_evaluate_request(
            {"schema": 1, "type": "evaluate", "design": design_payload()}
        )
        key = dispatcher._point_key(request)
        original = dispatcher._run_compute

        def boom(compute):
            raise RuntimeError("injected compute failure")

        dispatcher._run_compute = boom
        try:
            with pytest.raises(RuntimeError):
                dispatcher.evaluate(request)
            # The claim must not outlive the failed compute: a peer (or
            # a retry) can claim and compute immediately.
            assert not store.claim_active(key)
            dispatcher._run_compute = original
            result, source = dispatcher.evaluate(request)
            assert source == "computed"
            assert result["valid"]
        finally:
            store.close()

    def test_peer_claim_takeover_after_owner_death(self, tmp_path):
        """A claim abandoned by a killed process is retaken via TTL."""
        store = ResultStore(str(tmp_path / "s.sqlite3"))
        dispatcher = Dispatcher(store=store, claim_ttl_s=0.2,
                                claim_poll_s=0.01)
        request = parse_evaluate_request(
            {"schema": 1, "type": "evaluate", "design": design_payload()}
        )
        key = dispatcher._point_key(request)
        # Simulate a foreign worker that claimed the key and then died
        # without publishing: the claim row exists, no payload ever will.
        acquired, _ = store.try_claim(key, "killed-worker", ttl_s=0.2)
        assert acquired
        start = time.monotonic()
        result, source = dispatcher.evaluate(request)
        elapsed = time.monotonic() - start
        assert source == "computed"  # this process took over the claim
        assert result["valid"]
        assert elapsed >= 0.1  # it genuinely waited for the expiry
        assert dispatcher.stats.as_dict()["claim_waits"] >= 1
        assert dispatcher.stats.as_dict()["claims_expired"] >= 1
        store.close()


class TestFleetDedup:
    """The acceptance scenario: forked workers, one compute."""

    def test_concurrent_identical_requests_compute_once(self, fleet):
        body = json.dumps({
            "schema": 1, "type": "evaluate", "design": design_payload(),
        }).encode("utf-8")

        def post():
            request = urllib.request.Request(
                fleet.url + "/evaluate", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                return json.load(response)

        with ThreadPoolExecutor(8) as pool:
            envelopes = list(pool.map(lambda _: post(), range(8)))
        sources = Counter(envelope["cache"] for envelope in envelopes)
        assert sources["computed"] == 1
        assert set(sources) <= {"computed", "store", "coalesced"}
        payloads = {
            json.dumps(envelope["result"], sort_keys=True)
            for envelope in envelopes
        }
        assert len(payloads) == 1  # bit-identical across workers

    def test_fleet_stats_are_store_backed(self, fleet):
        client = ServiceClient(fleet.url)
        try:
            client.evaluate(design_payload(1))
            client.evaluate(design_payload(1))
            stats = client.stats()
            fleet_block = stats["store"]["fleet"]
            # Whichever worker answered /stats sees the shared store's
            # lifetime counters, not just its own process's.
            assert fleet_block["hits"] + fleet_block["misses"] >= 1
            assert stats["service"]["worker"] in (0, 1)
        finally:
            client.close()

    def test_metrics_carry_worker_label(self, fleet):
        with urllib.request.urlopen(fleet.url + "/metrics",
                                    timeout=30) as response:
            text = response.read().decode("utf-8")
        labelled = [line for line in text.splitlines()
                    if "worker=" in line and not line.startswith("#")]
        assert labelled, "no worker-labelled series in /metrics"
        assert any('worker="0"' in line or 'worker="1"' in line
                   for line in labelled)


class TestKilledMidClaim:
    """A worker killed mid-compute must not wedge the key."""

    def test_takeover_computes_bit_identical_result(self, tmp_path):
        store_path = str(tmp_path / "takeover.sqlite3")
        request_dict = {
            "schema": 1, "type": "evaluate", "design": design_payload(),
        }
        request = parse_evaluate_request(request_dict)
        probe = Dispatcher(store=None)
        key = probe._point_key(request)

        # Child process: claim the key, then die without publishing —
        # exactly a worker SIGKILLed mid-compute.
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                child_store = ResultStore(store_path)
                acquired, _ = child_store.try_claim(
                    key, "doomed", ttl_s=0.3
                )
                status = 0 if acquired else 2
            finally:
                os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(wait_status) == 0

        store = ResultStore(store_path)
        try:
            assert store.claim_active(key)  # the orphaned claim is live
            survivor = Dispatcher(store=store, claim_ttl_s=0.3,
                                  claim_poll_s=0.01)
            result, source = survivor.evaluate(request)
            assert source == "computed"
            # Bit-identical to an independent claim-free evaluation.
            reference, _ = Dispatcher(store=None).evaluate(request)
            assert json.dumps(result, sort_keys=True) == json.dumps(
                reference, sort_keys=True
            )
        finally:
            store.close()


class TestSupervision:
    def test_dead_worker_is_restarted(self, fleet):
        before = fleet.alive()
        assert len(before) == 2
        os.kill(before[0], signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = fleet.alive()
            if len(alive) == 2 and before[0] not in alive:
                break
            time.sleep(0.05)
        else:
            pytest.fail("fleet never refilled the killed worker's slot")
        assert fleet.restarts >= 1
        # The refilled worker serves traffic.
        client = ServiceClient(fleet.url)
        try:
            assert client.healthz()["ready"]
        finally:
            client.close()

    def test_close_reaps_every_worker(self, tmp_path):
        instance = ServiceFleet(
            workers=2, store_path=str(tmp_path / "reap.sqlite3")
        )
        instance.start()
        pids = instance.alive()
        assert len(pids) == 2
        instance.close()
        assert instance.alive() == []
        for pid in pids:
            # Reaped, not zombied: the pid is gone (or recycled to a
            # process we cannot signal).
            with pytest.raises((ProcessLookupError, PermissionError)):
                os.kill(pid, 0)

    def test_a_worker_woken_without_a_connection_returns(self):
        """Workers share a non-blocking socket: one woken for a
        connection another worker accepted returns from its accept at
        once, so SIGTERM's shutdown() never waits on a blocked loop."""
        instance = ServiceFleet(workers=1)
        instance.start(supervise=False)
        try:
            worker = CarbonService(
                listen_socket=instance.socket, worker_index=1
            )
            # No connection is pending: the forked worker is idle too.
            thread = threading.Thread(
                target=worker._handle_request_noblock, daemon=True
            )
            thread.start()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            instance.close()

    def test_resolve_worker_count(self):
        assert resolve_worker_count(3) == 3
        assert resolve_worker_count("2") == 2
        assert resolve_worker_count("auto") >= 1
        assert resolve_worker_count(None) >= 1
        with pytest.raises(ValueError):
            resolve_worker_count(0)

    @pytest.mark.parametrize("usable, expected", [
        (1, 1), (3, 3), (MAX_DEFAULT_WORKERS, MAX_DEFAULT_WORKERS),
        (64, MAX_DEFAULT_WORKERS),
    ])
    def test_auto_workers_follow_the_affinity_mask(
        self, monkeypatch, usable, expected
    ):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(usable)),
            raising=False,
        )
        assert default_worker_count() == expected
        assert resolve_worker_count("auto") == expected

    @pytest.mark.parametrize("cpus, expected", [
        (None, 1), (2, 2), (32, MAX_DEFAULT_WORKERS),
    ])
    def test_auto_workers_fall_back_to_the_cpu_count(
        self, monkeypatch, cpus, expected
    ):
        """Platforms without ``sched_getaffinity`` count every CPU."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert default_worker_count() == expected


class TestLoadHarness:
    def test_run_load_reports_latency_and_identity(self, fleet):
        result = run_load(fleet.url, requests_n=12, concurrency=3,
                          distinct=3)
        assert result["errors"] == []
        assert result["completed"] == 12
        assert result["rps"] > 0
        assert 0 < result["p50_ms"] <= result["p99_ms"]
        assert set(result["digests"]) == {0, 1, 2}
        assert sum(result["sources"].values()) == 12

    def test_one_and_two_workers_answer_the_same_digests(self, tmp_path):
        """A fresh 1-worker and a fresh 2-worker fleet, each on its own
        store, answer every design with the same payload digest on the
        cold pass and again on the warm pass."""
        passes = {}
        for workers in (1, 2):
            store = str(tmp_path / f"fleet_{workers}.sqlite3")
            with ServiceFleet(workers=workers, store_path=store) as fleet:
                passes[workers] = [
                    run_load(fleet.url, requests_n=12, concurrency=3,
                             distinct=3)
                    for _ in ("cold", "warm")
                ]
        baseline = passes[1][0]["digests"]
        assert set(baseline) == {0, 1, 2}
        for workers, (cold, warm) in passes.items():
            assert cold["errors"] == warm["errors"] == [], workers
            assert cold["sources"].get("computed") == 3, workers
            assert warm["sources"] == {"store": 12}, workers
            assert cold["digests"] == warm["digests"] == baseline, workers


class TestKeepAliveClient:
    def test_pool_round_trips_one_connection(self, fleet):
        client = ServiceClient(fleet.url)
        try:
            client.healthz()
            assert len(client.pool._idle) == 1
            conn = client.pool._idle[0]
            client.healthz()
            assert client.pool._idle == [conn]
        finally:
            client.close()

    def test_stale_socket_reconnects_across_worker_restart(self, fleet):
        client = ServiceClient(fleet.url, retries=0)
        try:
            first = client.evaluate(design_payload(2))
            # Kill both current workers: every pooled socket goes stale.
            for pid in fleet.alive():
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if len(fleet.alive()) == 2:
                    break
                time.sleep(0.05)
            time.sleep(0.2)  # let the fresh workers start accepting
            second = client.evaluate(design_payload(2))
            assert json.dumps(first["result"], sort_keys=True) == json.dumps(
                second["result"], sort_keys=True
            )
        finally:
            client.close()
