"""Chaos suite: fault-injected HTTP scenarios, end to end.

The service-level acceptance scenarios of the resilience PR:

* an overloaded server sheds with **503 + Retry-After**, and the
  client's circuit breaker opens on the shed streak and recovers after
  the cool-down;
* a request that overruns its ``X-Carbon3D-Deadline-Ms`` budget answers
  a **typed 504 payload** (``EvaluationTimeout`` with ``budget_s`` /
  ``elapsed_s``);
* ``/healthz`` splits into liveness (always 200) and readiness (503
  while draining), both unauthenticated;
* a **corrupted store file** across a restart is quarantined aside to
  ``.corrupt`` and the answer recomputed, bit-identical;
* ``carbon3d serve`` under **SIGTERM drains gracefully**: in-flight
  requests finish, their results land in the store, exit code 0 —
  driven through a real subprocess armed via ``CARBON3D_FAULT_PLAN``
  and the ``--fault-plan`` flag;
* an ``engine.point`` fault armed through ``--fault-plan`` reaches
  **every point route**: ``/evaluate`` and enveloped ``/batch`` answer a
  typed 400 ``FaultError``, streamed ``/batch`` and ``/sweep`` end with
  an in-band ``FaultError`` trailer.

Run separately from tier-1 as the CI ``chaos`` job.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.model import CarbonModel
from repro.core.operational import Workload
from repro.io.designs import design_from_dict
from repro.resilience import CircuitBreaker, CircuitOpenError
from repro.service import ServiceClient, ServiceError, make_server

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def design_payload(name="chaos_chip", gates=17e9) -> dict:
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


def start_server(**kwargs):
    server = make_server(**kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def stop_server(server, thread):
    server.close()
    thread.join(timeout=10.0)


SLOW_COMPUTE_PLAN = {
    "name": "slow-compute",
    "rules": [{"site": "dispatcher.compute", "action": "delay",
               "delay_s": 0.4, "times": None}],
}


class TestOverloadShedding:
    def test_shed_answers_503_with_retry_after(self):
        server, thread = start_server(
            max_inflight=1, queue_wait_s=0.02, retry_after_s=1.0,
            faults=SLOW_COMPUTE_PLAN,
        )
        try:
            slow = ServiceClient(server.url, retries=0)
            fast = ServiceClient(server.url, retries=0)
            background = threading.Thread(
                target=lambda: slow.evaluate(design_payload("occupant")),
            )
            background.start()
            time.sleep(0.1)  # let the slow request claim the one slot
            with pytest.raises(ServiceError) as exc:
                fast.evaluate(design_payload("shed_me"))
            background.join(timeout=10.0)
            assert exc.value.status == 503
            assert exc.value.retry_after_s is not None
            assert exc.value.retry_after_s >= 1.0
            assert exc.value.error_type == "OverloadedError"
            assert server.shed_requests >= 1
            # Sheds are refusals, not failures: the dispatcher never saw
            # the request, so its error counter stays untouched.
            assert server.dispatcher.stats.errors == 0
            stats = server.stats_dict()["service"]
            assert stats["shed_requests"] >= 1
            assert stats["max_inflight"] == 1
        finally:
            stop_server(server, thread)

    def test_breaker_opens_on_shed_streak_and_recovers(self):
        server, thread = start_server(
            max_inflight=1, queue_wait_s=0.02, retry_after_s=1.0,
            faults=SLOW_COMPUTE_PLAN,
        )
        try:
            now = [0.0]
            breaker = CircuitBreaker(
                failure_threshold=1, cooldown_s=0.5, clock=lambda: now[0]
            )
            slow = ServiceClient(server.url, retries=0)
            client = ServiceClient(server.url, retries=0, breaker=breaker)
            background = threading.Thread(
                target=lambda: slow.evaluate(design_payload("occupant")),
            )
            background.start()
            time.sleep(0.1)
            with pytest.raises(ServiceError):
                client.evaluate(design_payload("breaker_probe"))
            # The 503 opened the breaker; the next call fails fast
            # without touching the socket.
            assert breaker.state == "open"
            with pytest.raises(CircuitOpenError):
                client.evaluate(design_payload("breaker_probe"))
            background.join(timeout=10.0)  # server is idle again
            # Past the cool-down (Retry-After extended it to 1s), the
            # half-open probe goes through and closes the breaker.
            now[0] = 2.0
            envelope = client.evaluate(design_payload("breaker_probe"))
            assert envelope["result"]["total_kg"] > 0
            assert breaker.state == "closed"
        finally:
            stop_server(server, thread)


class TestDeadlines:
    def test_deadline_overrun_answers_typed_504(self):
        server, thread = start_server(faults=SLOW_COMPUTE_PLAN)
        try:
            client = ServiceClient(server.url, deadline_ms=100)
            with pytest.raises(ServiceError) as exc:
                client.evaluate(design_payload())
            assert exc.value.status == 504
            assert exc.value.error_type == "EvaluationTimeout"
            assert exc.value.payload["budget_s"] == pytest.approx(0.1)
            assert exc.value.payload["elapsed_s"] >= 0.1
        finally:
            stop_server(server, thread)

    def test_generous_deadline_header_is_invisible(self):
        server, thread = start_server()
        try:
            with_deadline = ServiceClient(server.url, deadline_ms=60_000)
            bare = ServiceClient(server.url)
            first = with_deadline.evaluate(design_payload())
            second = bare.evaluate(design_payload())
            assert first["result"] == second["result"]
        finally:
            stop_server(server, thread)

    def test_malformed_deadline_header_is_a_400(self):
        server, thread = start_server()
        try:
            request = urllib.request.Request(
                server.url + "/evaluate",
                data=json.dumps({
                    "schema": 1, "type": "evaluate",
                    "design": design_payload(),
                }).encode("utf-8"),
                headers={"Content-Type": "application/json",
                         "X-Carbon3D-Deadline-Ms": "soon"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(request, timeout=10)
            assert exc.value.code == 400
        finally:
            stop_server(server, thread)


class TestHealthSplit:
    def test_liveness_and_readiness_endpoints(self, tmp_path):
        server, thread = start_server(
            tokens_path=str(tmp_path / "tokens.sqlite3")
        )
        server.tokens.issue("chaos", "anonymous")
        try:
            client = ServiceClient(server.url)  # deliberately tokenless
            live = client._request("GET", "/healthz/live")["result"]
            ready = client._request("GET", "/healthz/ready")["result"]
            assert live["status"] == "alive"
            assert ready["status"] == "ready"
            health = client.healthz()
            assert health["status"] == "ok"
            assert "/healthz/live" in health["endpoints"]
        finally:
            stop_server(server, thread)

    def test_readiness_goes_503_while_draining_liveness_stays_up(self):
        server, thread = start_server()
        try:
            client = ServiceClient(server.url, retries=0)
            server.draining = True
            live = client._request("GET", "/healthz/live")["result"]
            assert live["status"] == "alive"
            with pytest.raises(ServiceError) as exc:
                client._request("GET", "/healthz/ready")
            assert exc.value.status == 503
            with pytest.raises(ServiceError) as exc:
                client.evaluate(design_payload())  # POSTs shed too
            assert exc.value.status == 503
            server.draining = False
            ready = client._request("GET", "/healthz/ready")["result"]
            assert ready["status"] == "ready"
        finally:
            stop_server(server, thread)


class TestStoreCorruptionOverHTTP:
    def test_corrupt_store_recomputes_and_quarantines(self, tmp_path):
        store_path = tmp_path / "store.sqlite3"
        server, thread = start_server(store_path=str(store_path))
        try:
            reference = ServiceClient(server.url).evaluate(
                design_payload()
            )["result"]
        finally:
            stop_server(server, thread)

        store_path.write_bytes(b"\x00garbage, not sqlite\x00" * 128)

        server, thread = start_server(store_path=str(store_path))
        try:
            envelope = ServiceClient(server.url).evaluate(design_payload())
        finally:
            stop_server(server, thread)
        assert envelope["cache"] == "computed"  # rebuilt store was empty
        assert envelope["result"] == reference  # bit-identical recompute
        corpses = list(tmp_path.glob("*.corrupt*"))
        assert corpses, "the corrupt database file was not quarantined"
        direct = CarbonModel(
            design_from_dict(design_payload()), fab_location="taiwan"
        ).evaluate(Workload.autonomous_vehicle())
        assert envelope["result"] == json.loads(json.dumps(direct.to_dict()))


def _serve_subprocess(tmp_path, extra_args=(), env_plan=None):
    """Spawn ``carbon3d serve`` on a free port; return (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["PYTHONUNBUFFERED"] = "1"
    if env_plan is not None:
        env["CARBON3D_FAULT_PLAN"] = json.dumps(env_plan)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--store", str(tmp_path / "served_store.sqlite3"), *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=REPO,
    )
    url = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            url = line.strip().rsplit(" ", 1)[-1]
            break
    if url is None:
        proc.kill()
        raise RuntimeError("server subprocess never announced its URL")
    # Wait for readiness (the banner prints before serve_forever runs).
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz/live", timeout=1):
                break
        except OSError:
            time.sleep(0.05)
    return proc, url


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
class TestGracefulDrain:
    def test_sigterm_finishes_inflight_and_persists(self, tmp_path):
        """Satellite: SIGTERM mid-request → the slow batch finishes, its
        result lands in the store, and the process exits 0."""
        proc, url = _serve_subprocess(tmp_path, env_plan={
            "name": "slow-serve",
            "rules": [{"site": "dispatcher.compute", "action": "delay",
                       "delay_s": 1.0, "times": None}],
        })
        outcome = {}

        def slow_request():
            client = ServiceClient(url, timeout=60.0, retries=0)
            outcome["envelope"] = client.evaluate(design_payload("drainee"))

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.4)  # the request is mid-delay inside the dispatcher
        proc.send_signal(signal.SIGTERM)
        worker.join(timeout=30.0)
        output = proc.stdout.read()
        assert proc.wait(timeout=30.0) == 0
        assert "drained" in output
        # The in-flight request was answered, not dropped.
        assert outcome["envelope"]["result"]["total_kg"] > 0
        # And its computed result was persisted before the store closed.
        from repro.service.store import ResultStore

        with ResultStore(str(tmp_path / "served_store.sqlite3")) as store:
            assert store.stats()["entries"] == 1

    def test_fault_plan_flag_arms_the_server(self, tmp_path):
        plan = {
            "name": "flaky-front-door",
            "rules": [{"site": "server.request",
                       "message": "injected front-door fault"}],
        }
        proc, url = _serve_subprocess(
            tmp_path,
            extra_args=["--fault-plan", json.dumps(plan),
                        "--max-inflight", "7"],
        )
        try:
            client = ServiceClient(url, retries=0)
            with pytest.raises(ServiceError) as exc:
                client.evaluate(design_payload())  # the one armed fault
            assert "injected front-door fault" in str(exc.value)
            assert exc.value.status == 400
            envelope = client.evaluate(design_payload())  # rule spent
            assert envelope["result"]["total_kg"] > 0
            assert client.stats()["service"]["max_inflight"] == 7
        finally:
            proc.send_signal(signal.SIGTERM)
            output = proc.stdout.read()
            assert proc.wait(timeout=30.0) == 0
        assert "flaky-front-door" in output  # the startup banner names it


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
class TestPointFaults:
    def test_engine_point_fault_reaches_every_point_route(self, tmp_path):
        plan = {
            "name": "point-faults",
            "rules": [{"site": "engine.point", "times": None,
                       "message": "injected point fault"}],
        }
        reference = {
            "name": "point_fault_ref",
            "integration": "2d",
            "package": {"class": "fcbga"},
            "throughput_tops": 254.0,
            "dies": [{"name": "die", "node": "7nm", "gate_count": 17e9,
                      "workload_share": 1.0}],
        }
        proc, url = _serve_subprocess(
            tmp_path, extra_args=["--fault-plan", json.dumps(plan)]
        )
        try:
            client = ServiceClient(url, retries=0)
            for call in (
                lambda: client.evaluate(design_payload()),
                lambda: client.batch([{"design": design_payload()}]),
            ):
                with pytest.raises(ServiceError) as exc:
                    call()
                assert exc.value.status == 400
                assert exc.value.error_type == "FaultError"
                assert "injected point fault" in str(exc.value)
            for stream in (
                lambda: client.stream_batch([{"design": design_payload()}]),
                lambda: client.stream_sweep(
                    reference, integrations=["2d", "mcm"]
                ),
            ):
                with pytest.raises(ServiceError) as exc:
                    list(stream())
                assert exc.value.error_type == "FaultError"
                assert "injected point fault" in str(exc.value)
            # Nothing was computed, so nothing was stored.
            assert client.stats()["store"]["entries"] == 0
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.stdout.read()
            assert proc.wait(timeout=30.0) == 0
