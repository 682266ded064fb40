"""Load-test a pre-forked carbon3d fleet, cold and warm.

Drives :mod:`repro.service.loadgen` against a local
:class:`repro.service.ServiceFleet` the same way the fleet CI job does:

1. a **two-worker fleet** is forked over one shared listening socket —
   the parent binds once, each child runs the full service handler, and
   ``/healthz/ready`` answers from whichever worker accepts;
2. a **cold load pass** fans 24 requests over 6 keep-alive clients;
   cross-process claim rows keep it at exactly one compute per distinct
   design no matter which workers the requests land on;
3. a **warm pass** repeats the same mix and is answered entirely from
   the shared store, which is where the latency/throughput gap shows;
4. every response body is digested — identical designs must produce
   bit-identical payloads across workers, or the harness flags
   divergence.

Run:  python examples/load_test.py
"""

import tempfile
from pathlib import Path

from repro.service import ServiceFleet
from repro.service.loadgen import run_load

# Removed, store file included, once the fleet is reaped.
workdir = tempfile.TemporaryDirectory(prefix="carbon3d_load_")
store = Path(workdir.name) / "store.sqlite3"

print("1. forking a two-worker fleet on a shared socket")
with ServiceFleet("127.0.0.1", 0, workers=2, store_path=store) as fleet:
    print(f"   url     : {fleet.url}")
    print(f"   workers : {len(fleet.alive())} alive")

    print("2. cold pass (every distinct design computed exactly once)")
    cold = run_load(fleet.url, requests_n=24, concurrency=6, distinct=6)
    assert not cold["errors"], cold["errors"]
    assert cold["sources"].get("computed", 0) == cold["distinct_designs"]
    print(f"   rps     : {cold['rps']:.0f}")
    print(f"   p50/p99 : {cold['p50_ms']:.2f} / {cold['p99_ms']:.2f} ms")
    print(f"   sources : {cold['sources']}")

    print("3. warm pass (served from the shared store)")
    warm = run_load(fleet.url, requests_n=24, concurrency=6, distinct=6)
    assert not warm["errors"], warm["errors"]
    assert warm["sources"].get("computed", 0) == 0
    print(f"   rps     : {warm['rps']:.0f}")
    print(f"   p50/p99 : {warm['p50_ms']:.2f} / {warm['p99_ms']:.2f} ms")
    print(f"   sources : {warm['sources']}")

    print("4. cross-worker determinism")
    # run_load records one sha256 digest per distinct design and reports
    # any response that disagrees with it as an error; matching digests
    # across the cold and warm passes means every worker answered with
    # the bit-identical payload.
    print(f"   distinct designs : {len(warm['digests'])}")
    print(f"   stable digests   : {warm['digests'] == cold['digests']}")
    assert warm["digests"] == cold["digests"]

workdir.cleanup()
print("fleet drained and reaped cleanly")
