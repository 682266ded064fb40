"""Deterministic fault injection: break every layer, watch it recover.

Walks the resilience catalog end to end with seeded
:class:`repro.resilience.FaultPlan` rules:

1. the result store's database is **corrupted mid-operation** — it
   quarantines the file aside to ``.corrupt`` and rebuilds, answering
   with a recompute instead of an error;
2. an HTTP server is given a **slow engine and a one-request admission
   gate** — a concurrent request is shed with 503 + Retry-After, and a
   deadline-carrying request gets a typed 504 ``EvaluationTimeout``;
3. the client's **circuit breaker** opens on the shed streak and fails
   fast without touching the socket.

Everything is deterministic: same plan + same call sequence = same
faults, which is exactly how the chaos CI job drives these paths.

Run:  python examples/fault_injection.py
"""

import tempfile
import threading
import time
from pathlib import Path

from repro.resilience import CircuitBreaker, CircuitOpenError, FaultPlan
from repro.service import ServiceClient, ServiceError, make_server
from repro.service.store import ResultStore

# 1. Store self-healing: corrupt the database on the second put.
print("1. store corruption mid-write")
# The directory, quarantined file included, is removed on the way out.
with tempfile.TemporaryDirectory(prefix="carbon3d_faults_") as tmp:
    store_dir = Path(tmp)
    store = ResultStore(
        str(store_dir / "store.sqlite3"),
        faults=FaultPlan.coerce({
            "rules": [{"site": "store.put", "action": "error",
                       "error": "sqlite", "after": 1}],
        }),
    )
    store.put("first", "kept until the corruption")
    store.put("second", "survives the rebuild")   # corrupts, heals, lands
    print(f"   quarantined      : {store.quarantined} "
          f"({[p.name for p in store_dir.glob('*.corrupt*')]})")
    print(f"   write survived   : {store.get('second')!r}")
    assert store.quarantined == 1 and store.get("second") is not None
    store.close()

# 2. Overload shedding + deadlines over real HTTP.
print("2. overloaded server: 503 + Retry-After, typed 504 deadlines")
server = make_server(
    max_inflight=1, queue_wait_s=0.02, retry_after_s=1.0,
    faults={"rules": [{"site": "dispatcher.compute", "action": "delay",
                       "delay_s": 0.4, "times": None}]},
)
threading.Thread(target=server.serve_forever, daemon=True).start()
payload = {"name": "occupant", "integration": "2d",
           "dies": [{"name": "die0", "node": "14nm", "area_mm2": 100.0}]}

slow = ServiceClient(server.url, retries=0)
occupant = threading.Thread(target=lambda: slow.evaluate(payload))
occupant.start()
time.sleep(0.1)                                   # the one slot is taken

breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.5)
client = ServiceClient(server.url, retries=0, breaker=breaker)
try:
    client.evaluate(dict(payload, name="shed_me"))
except ServiceError as error:
    print(f"   shed             : HTTP {error.status}, "
          f"Retry-After {error.retry_after_s:.0f}s")
    assert error.status == 503

# 3. The breaker opened on that shed; the retry fails fast, socketless.
try:
    client.evaluate(dict(payload, name="shed_me"))
except CircuitOpenError as error:
    print(f"   breaker          : open, retry in {error.retry_after_s:.2f}s")
occupant.join()

deadliner = ServiceClient(server.url, deadline_ms=100)
try:
    deadliner.evaluate(dict(payload, name="deadline_me"))
except ServiceError as error:
    print(f"   deadline         : HTTP {error.status} "
          f"{error.error_type} (budget {error.payload['budget_s']:.1f}s)")
    assert error.status == 504

time.sleep(1.0)                                   # past the cool-down
print(f"   breaker recovers : "
      f"{client.evaluate(payload)['result']['total_kg']:.2f} kg CO2e "
      f"(state={breaker.state})")
server.close()
print("all recovery paths exercised.")
