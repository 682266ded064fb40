"""Service throughput bench: warm vs cold store → ``BENCH_service.json``.

Measures end-to-end HTTP requests/second against a real
:class:`~repro.service.server.CarbonService` under the traffic mix an
exploration service actually sees:

* ``evaluates`` single-point requests over *distinct* designs (each needs
  its own resolve/wirelength work when the store is cold);
* ``mc_requests`` Monte-Carlo summary requests (the expensive
  interactive queries a persistent store pays off most on).

Each repeat runs the same request list twice through two server
processes-worth of state: a **cold** pass against a fresh store (every
answer computed through the engine), then a **restarted** server on the
same store file — dispatcher and engine memos empty, exactly the
cold-restart scenario — where every answer must come back from the
persistent store. The bench asserts the two passes return bit-identical
payloads and that the warm pass never touched the engine, so the
speedup it reports compares equivalent, verified work. Per-request
latency is measured client-side into a
:class:`repro.obs.metrics.Histogram`; the best repeat's p50/p99 land in
the report next to the rps figures.

Invoked by ``python -m repro.cli bench --service`` and
``benchmarks/perf_report.py --service``.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

from ..errors import ParameterError
from ..obs.metrics import Histogram
from ..seeds import DEFAULT_SEED
from .client import ServiceClient
from .server import make_server

#: Gate count of the 2-die hybrid-bonded reference each request varies.
_BASE_GATES = 17.0e9


def _design_payload(index: int) -> dict:
    """Distinct 2-die hybrid-3D designs (distinct gate counts → no sharing)."""
    gates = _BASE_GATES * (1.0 + 0.01 * index)
    return {
        "name": f"bench_{index}",
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


def _requests(evaluates: int, mc_requests: int, samples: int) -> list:
    """(kind, kwargs) pairs, evaluates first, then Monte-Carlo summaries."""
    requests = [
        ("evaluate", {"design": _design_payload(i)})
        for i in range(evaluates)
    ]
    requests.extend(
        ("montecarlo", {
            "design": _design_payload(i),
            "samples": samples,
            "seed": DEFAULT_SEED + i,
        })
        for i in range(mc_requests)
    )
    return requests


def _run_pass(
    store_path: str, requests: list
) -> "tuple[float, list, dict, dict]":
    """One server lifetime: serve every request.

    Returns ``(elapsed_s, results, stats, latency_summary)`` — the
    latency summary is a per-request client-side histogram
    (count/p50/p90/p99/...) from :class:`repro.obs.metrics.Histogram`.
    """
    server = make_server(store_path=store_path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url)
    latency = Histogram("request_latency", "per-request wall time")
    try:
        results = []
        start = time.perf_counter()
        for kind, kwargs in requests:
            with latency.time():
                envelope = getattr(client, kind)(**kwargs)
            results.append((envelope["cache"], envelope["result"]))
        elapsed = time.perf_counter() - start
        stats = client.stats()
    finally:
        server.close()
        thread.join(timeout=5.0)
    return elapsed, results, stats, latency.summary()


def bench_service(
    evaluates: int = 24,
    mc_requests: int = 8,
    samples: int = 400,
    repeats: int = 3,
) -> dict:
    """Cold-vs-warm-store requests/sec over HTTP; assert identical payloads."""
    if repeats < 1:
        raise ParameterError(f"need >= 1 bench repeat, got {repeats}")
    requests = _requests(evaluates, mc_requests, samples)
    cold_s = warm_s = float("inf")
    cold_latency = warm_latency = None
    with tempfile.TemporaryDirectory(prefix="carbon3d_bench_") as tmp:
        for repeat in range(repeats):
            store_path = os.path.join(tmp, f"store_{repeat}.sqlite3")
            cold, cold_results, _, cold_lat = _run_pass(store_path, requests)
            warm, warm_results, warm_stats, warm_lat = _run_pass(
                store_path, requests
            )
            if [r for _, r in cold_results] != [r for _, r in warm_results]:
                raise AssertionError(
                    "warm-store responses diverged from cold responses"
                )
            if any(source != "store" for source, _ in warm_results):
                raise AssertionError(
                    "a warm-pass request missed the persistent store"
                )
            if warm_stats["engine"]["resolve_misses"] != 0:
                raise AssertionError(
                    "the warm pass re-resolved a design — store bypassed"
                )
            # Keep the latency summary of each side's best repeat so
            # the trajectory compares like-for-like with the rps floor.
            if cold < cold_s:
                cold_s, cold_latency = cold, cold_lat
            if warm < warm_s:
                warm_s, warm_latency = warm, warm_lat
    n = len(requests)
    return {
        "requests": n,
        # Run shape, recorded so trajectory entries stay comparable as
        # the serving stack evolves (pre-forked fleets, keep-alive
        # clients): this bench is the single-process, single-client
        # baseline the fleet curves are measured against.
        "workers": 1,
        "keep_alive": True,
        "evaluates": evaluates,
        "mc_requests": mc_requests,
        "mc_samples": samples,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_rps": n / cold_s,
        "warm_rps": n / warm_s,
        "cold_p50_ms": cold_latency["p50"] * 1e3,
        "cold_p99_ms": cold_latency["p99"] * 1e3,
        "warm_p50_ms": warm_latency["p50"] * 1e3,
        "warm_p99_ms": warm_latency["p99"] * 1e3,
        "speedup": cold_s / warm_s,
        "identical": True,
    }


def run_service_bench(
    output_path: "str | None" = "BENCH_service.json",
    evaluates: int = 24,
    mc_requests: int = 8,
    samples: int = 400,
    repeats: int = 3,
) -> dict:
    """Run the bench and (optionally) write the JSON report."""
    result = {
        "bench": "service",
        "service": bench_service(
            evaluates=evaluates, mc_requests=mc_requests, samples=samples,
            repeats=repeats,
        ),
    }
    if output_path:
        from ..io.results import write_bench_report

        write_bench_report(result, output_path)
    return result


def format_service_bench(result: dict) -> str:
    """One-paragraph human rendering."""
    s = result["service"]
    text = (
        f"service      {s['requests']} requests ({s['evaluates']} evaluate + "
        f"{s['mc_requests']} montecarlo×{s['mc_samples']}): "
        f"cold {s['cold_s'] * 1e3:.1f}ms ({s['cold_rps']:.0f} req/s) → "
        f"warm store {s['warm_s'] * 1e3:.1f}ms ({s['warm_rps']:.0f} req/s) "
        f"({s['speedup']:.1f}×, identical={s['identical']})"
    )
    if "cold_p50_ms" in s:
        text += (
            f"\n             latency: cold p50 {s['cold_p50_ms']:.2f}ms "
            f"p99 {s['cold_p99_ms']:.2f}ms → warm p50 "
            f"{s['warm_p50_ms']:.2f}ms p99 {s['warm_p99_ms']:.2f}ms"
        )
    return text
