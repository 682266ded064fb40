"""The Session facade: one front door, local or remote, same payloads.

Walks the `repro.api` surface end to end:

1. a **local** Session — evaluate / sweep / Monte-Carlo / compare /
   tornado on an in-process engine;
2. future-based submission — ``session.submit(study)`` returns a
   StudyHandle whose ``partial()`` yields sweep points *as they finish*;
3. a **service** Session — the very same StudySpec payloads against an
   in-process HTTP server (with a registry-issued API token), checked
   bit-identical to the local answers.

Run:  python examples/session_quickstart.py
"""

import tempfile
import threading
from pathlib import Path

from repro import ChipDesign
from repro.api import Session, StudySpec
from repro.service import make_server

# The quickstart design: a 7 nm planar SoC and its hybrid-bonded split.
reference = ChipDesign.planar_2d(
    "my_soc_2d", node="7nm", gate_count=17e9, throughput_tops=254.0,
    efficiency_tops_per_w=2.74,
)
stacked = ChipDesign.homogeneous_split(reference, "hybrid_3d")

# 1. Local session: every study kind through one front door. ----------------
with Session() as local:
    report = local.evaluate(stacked)
    print(f"evaluate    : {report.total_kg:8.2f} kg CO2e "
          f"(valid={report.valid})")

    band = local.monte_carlo(stacked, samples=200, backend="act")
    print(f"monte_carlo : {band.summary()}   (ACT's own factor set)")

    table = local.compare(stacked, draws=0)
    print(f"compare     : {table.summary()}")

    swings = local.tornado(stacked, workload="none")
    top = swings["factors"][0]
    print(f"tornado     : top factor {top['factor']} "
          f"(swing {top['swing_kg']:.2f} kg)")

    # 2. Future-based submission: points stream as they finish. -------------
    handle = local.submit(StudySpec.sweep(
        reference, integrations=["2d", "hybrid_3d", "mcm", "si_interposer"],
    ))
    print("sweep       : streaming points as they finish")
    for point in handle.partial():
        print(f"  [{point.index}] {point.label:<24} "
              f"{point.total_kg:8.2f} kg CO2e ({point.cache})")
    sweep_local = handle.result()

    # 3. Same studies, served over HTTP (token-authenticated). --------------
    #    The token belongs to the anonymous tenant, whose store keys are
    #    the same unsalted keys a local session computes.
    workdir = tempfile.TemporaryDirectory(prefix="carbon3d_")
    server = make_server(
        tokens_path=str(Path(workdir.name) / "tokens.sqlite3")
    )
    secret, _ = server.tokens.issue("quickstart", "anonymous")
    threading.Thread(target=server.serve_forever, daemon=True).start()
    remote = Session(executor="service", url=server.url, token=secret)
    try:
        served = remote.evaluate(stacked)
        sweep_served = remote.sweep(
            reference,
            integrations=["2d", "hybrid_3d", "mcm", "si_interposer"],
        )
        print(f"service     : evaluate parity "
              f"{served.to_payload() == report.to_payload()}, "
              f"sweep parity "
              f"{sweep_served.to_payload() == sweep_local.to_payload()}")
    finally:
        server.close()
        workdir.cleanup()
