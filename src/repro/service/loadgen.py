"""Load harness: concurrent keep-alive clients against one endpoint.

:func:`run_load` drives one running endpoint with N concurrent
keep-alive clients over a fixed request budget and reports
client-observed throughput (rps) and latency percentiles (p50/p99) —
the numbers an operator sizing a deployment actually cares about.
Responses are digested per distinct design so separate runs can be
compared for bit-identity without holding every payload.

Invoked by ``python -m repro.cli loadgen --url URL`` and the CI fleet
smoke job; ``examples/load_test.py`` drives it against a local fleet.
Speed claims about the service live in ``BENCHMARK.json`` and are
measured by ``perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

from ..errors import ParameterError
from ..obs.metrics import Histogram
from .client import ServiceClient

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


def _digest(result: dict) -> str:
    """Canonical fingerprint of one response payload."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_load(
    url: str,
    requests_n: int = 64,
    concurrency: int = 8,
    distinct: int = 8,
    keep_alive: bool = True,
    token: "str | None" = None,
    timeout: float = 120.0,
) -> dict:
    """Drive ``requests_n`` evaluates at ``url`` from concurrent clients.

    ``distinct`` designs round-robin across the request budget, so a
    fresh store computes ``distinct`` points and serves the rest from
    store/coalescing — the mix that exercises cross-worker dedup.
    ``keep_alive=False`` drops every connection after each request
    (``pool_size=0``), isolating what connection reuse is worth.

    Returns rps, p50/p99 latency (ms), per-design response digests (for
    cross-run bit-identity checks), and the response source counts.
    """
    if requests_n < 1:
        raise ParameterError(f"need >= 1 request, got {requests_n}")
    if concurrency < 1:
        raise ParameterError(f"need >= 1 client, got {concurrency}")
    if distinct < 1:
        raise ParameterError(f"need >= 1 distinct design, got {distinct}")
    latency = Histogram("loadgen_latency", "per-request wall time")
    counter = {"next": 0}
    lock = threading.Lock()
    digests: "dict[int, str]" = {}
    sources: "dict[str, int]" = {}
    errors: "list[str]" = []

    def worker() -> None:
        client = ServiceClient(
            url, timeout=timeout, token=token,
            pool_size=1 if keep_alive else 0,
        )
        try:
            while True:
                with lock:
                    index = counter["next"]
                    if index >= requests_n:
                        return
                    counter["next"] = index + 1
                design_index = index % distinct
                try:
                    with latency.time():
                        envelope = client.evaluate(
                            _design_payload(design_index)
                        )
                except Exception as error:  # noqa: BLE001 - recorded
                    with lock:
                        errors.append(f"{type(error).__name__}: {error}")
                    continue
                digest = _digest(envelope["result"])
                with lock:
                    source = envelope.get("cache", "?")
                    sources[source] = sources.get(source, 0) + 1
                    previous = digests.setdefault(design_index, digest)
                    if previous != digest:
                        errors.append(
                            f"design {design_index} answered two different "
                            f"payloads"
                        )
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    summary = latency.summary()
    completed = requests_n - len(errors)
    return {
        "requests": requests_n,
        "completed": completed,
        "concurrency": concurrency,
        "distinct_designs": distinct,
        "keep_alive": keep_alive,
        "elapsed_s": elapsed,
        "rps": completed / elapsed if elapsed > 0 else 0.0,
        "p50_ms": summary["p50"] * 1e3,
        "p99_ms": summary["p99"] * 1e3,
        "sources": sources,
        "digests": digests,
        "errors": errors,
    }
