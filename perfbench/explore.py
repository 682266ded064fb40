"""One in-process study round through ``Session(executor="local")``.

No HTTP, store or tenancy: a round takes a seeded reference design and
runs three studies on it — an ``optimize`` over a dense grid (50 wafer
diameters × 10 fab locations × every split the design rules allow,
about 2×10⁴ points), a 500-draw ``monte_carlo`` of its ``hybrid_3d``
split, and an 8 × 5 ``sweep``. The traced run of ``serve_cold`` runs one
round with the span wrappers on; that is where the ``vec``,
``analysis``, ``uncertainty`` and ``api`` layers are measured.
"""

from __future__ import annotations

from time import perf_counter

from repro.api import Session

import inputs
from tracer import CORE_PATCHES, ENGINE_COUNTS, SESSION_PATCHES, Tracer


def run_round(session: Session, round_: inputs.StudyRound, times: dict):
    """The three studies of one round; wall times appended per metric."""
    studies = (
        ("optimize_ms", lambda: session.optimize(
            round_.wire, wafer_diameters_mm=list(inputs.OPTIMIZE_WAFERS),
            fab_locations=list(inputs.OPTIMIZE_LOCATIONS),
        ).payload),
        ("monte_carlo_ms", lambda: session.monte_carlo(
            round_.mc_wire, samples=inputs.MC_SAMPLES, seed=round_.mc_seed,
        ).payload),
        ("sweep_ms", lambda: [
            (point.label, point.payload)
            for point in session.sweep(
                round_.wire, integrations=list(inputs.INTEGRATIONS),
                fab_locations=list(inputs.SWEEP_LOCATIONS),
            )
        ]),
    )
    results = {}
    for metric, study in studies:
        start = perf_counter()
        results[metric] = study()
        times.setdefault(metric, []).append(perf_counter() - start)
    return results


def check(round_, results) -> "list[str]":
    return (
        round_.check_optimize(results["optimize_ms"])
        + round_.check_monte_carlo(results["monte_carlo_ms"])
        + round_.check_sweep(results["sweep_ms"])
    )


def traced_round(seed: int) -> dict:
    """Round 0 on a fresh session with the span wrappers installed.

    Returns the span summary (one operation: the round), the study wall
    times, the work counts the round produced and any oracle problems.
    The counts are deterministic: a fresh session, a fixed round.
    """
    round_ = inputs.StudyRound(seed, 0)
    times: dict = {}
    tracer = Tracer()
    tracer.install(CORE_PATCHES + SESSION_PATCHES)
    try:
        with Session(executor="local") as session:
            with tracer.span("explore.round", "bench"):
                results = run_round(session, round_, times)
            stats = session.stats()
    finally:
        tracer.uninstall()
    counts = {f"engine.{k}": stats["engine"][k] for k in ENGINE_COUNTS}
    counts["vec.points"] = tracer.counts["vec.points"]
    counts["vec.shape_groups"] = tracer.counts["vec.shape_groups"]
    return {
        "trace": tracer.summary(),
        "times_ms": {k: v[0] * 1e3 for k, v in times.items()},
        "counts": counts,
        "problems": check(round_, results),
    }
