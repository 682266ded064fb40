"""Carbon-as-a-service round trip: serve, submit, restart, hit the store.

Starts an in-process evaluation server with a persistent result store,
submits a design through a service :class:`repro.api.Session`, then
*restarts* the server (fresh engine, same store file) and submits the
same design again — the second answer comes back bit-identical from the
store without a single resolve.

Run:  python examples/service_roundtrip.py
"""

import tempfile
import threading
from pathlib import Path

from repro import ChipDesign
from repro.api import Session, StudySpec
from repro.service import make_server

# 1. The design to price — the quickstart's hybrid-bonded 3D ORIN split,
#    exactly what `carbon3d submit` would read from a JSON file.
reference = ChipDesign.planar_2d(
    "my_soc_2d", node="7nm", gate_count=17e9, throughput_tops=254.0,
    efficiency_tops_per_w=2.74,
)
design = ChipDesign.homogeneous_split(reference, "hybrid_3d")

# Removed, store file included, once the second server stops.
workdir = tempfile.TemporaryDirectory(prefix="carbon3d_")
store_path = Path(workdir.name) / "store.sqlite3"


def start_server():
    """Bind a server on a free port with the shared persistent store."""
    server = make_server(store_path=str(store_path))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


# 2. First server lifetime: the request is computed through the engine.
server = start_server()
session = Session(executor="service", url=server.url)
print(f"server listening on {server.url}, store at {store_path}")

first = session.evaluate(design)                      # workload: the AV case
print(f"first submit  : {first.total_kg:.3f} kg CO2e (cache={first.cache})")

# A streamed sweep and a Monte-Carlo summary ride through the same store.
handle = session.submit(
    StudySpec.sweep(reference, integrations=["2d", "hybrid_3d", "m3d"])
)
for point in handle.partial():
    print(f"  sweep {point.label:<18}: "
          f"{point.total_kg:8.3f} kg CO2e ({point.cache})")
mc = session.monte_carlo(design, samples=200)
print(f"uncertainty   : mean {mc['mean_kg']:.2f} ± {mc['std_kg']:.2f} kg "
      f"[p5 {mc['p05_kg']:.2f}, p95 {mc['p95_kg']:.2f}]")

server.close()
print("server stopped.")

# 3. Second lifetime: cold engine, warm store — nothing recomputes.
server = start_server()
session = Session(executor="service", url=server.url)
second = session.evaluate(design)
stats = session.client.stats()
print(f"after restart : {second.total_kg:.3f} kg CO2e (cache={second.cache})")
print(f"bit-identical : {second.to_payload() == first.to_payload()}")
print(f"store hits    : {stats['store']['hits']}, "
      f"engine resolves since restart: {stats['engine']['resolve_misses']}")
server.close()
workdir.cleanup()
