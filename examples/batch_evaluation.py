#!/usr/bin/env python
"""Batch evaluation: a large grid sweep through one shared engine.

Evaluates an ORIN-class 2D reference across every integration
technology × five manufacturing grids × three wafer sizes — 120
lifecycle evaluations — through a single :class:`repro.engine.
BatchEvaluator`, then reuses the same warm engine for a Monte-Carlo
uncertainty pass. The cache statistics printed at the end show why this
is fast: each design resolves once for all grids and wafer sizes, and
the Davis wirelength math runs once per distinct (gate count, Rent
exponent) pair for the whole study.

Run from the repository root::

    PYTHONPATH=src python examples/batch_evaluation.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import ChipDesign, DEFAULT_PARAMETERS, Workload  # noqa: E402
from repro.analysis.uncertainty import monte_carlo  # noqa: E402
from repro.engine import BatchEvaluator, EvalPoint  # noqa: E402

INTEGRATIONS = (
    "2d", "micro_3d", "hybrid_3d", "m3d", "mcm", "info", "emib",
    "si_interposer",
)
LOCATIONS = ("iceland", "france", "usa", "taiwan", "india")
WAFERS_MM = (200.0, 300.0, 450.0)


def main() -> int:
    reference = ChipDesign.planar_2d(
        "orin_like", "7nm", gate_count=17.0e9, throughput_tops=254.0
    )
    workload = Workload.autonomous_vehicle()

    points = []
    for name in INTEGRATIONS:
        if name == "2d":
            design = reference
        else:
            design = ChipDesign.homogeneous_split(reference, name)
        for wafer in WAFERS_MM:
            params = DEFAULT_PARAMETERS.with_wafer_diameter(wafer)
            for location in LOCATIONS:
                points.append(EvalPoint(
                    design=design, params=params, fab_location=location,
                    workload=workload,
                    label=f"{name}/{wafer:.0f}mm/{location}",
                ))

    evaluator = BatchEvaluator()
    start = time.perf_counter()
    reports = evaluator.evaluate_many(points)
    elapsed = time.perf_counter() - start

    print(f"evaluated {len(points)} grid points in {elapsed * 1e3:.1f} ms "
          f"({elapsed / len(points) * 1e6:.0f} µs/point)")
    valid = [(p, r) for p, r in zip(points, reports) if r.valid]
    best = min(valid, key=lambda pr: pr[1].total_kg)
    worst = max(zip(points, reports), key=lambda pr: pr[1].total_kg)
    print(f"lowest-carbon valid point : {best[0].label:<28} "
          f"{best[1].total_kg:8.1f} kg CO2e")
    print(f"highest-carbon point      : {worst[0].label:<28} "
          f"{worst[1].total_kg:8.1f} kg CO2e")
    print(f"engine: {evaluator.stats.as_dict()}")

    # Reuse the warm engine for uncertainty on the best configuration.
    result = monte_carlo(
        best[0].design, workload=workload, params=best[0].params,
        fab_location=best[0].fab_location, samples=300,
        evaluator=evaluator,
    )
    print(f"Monte-Carlo on the winner : {result.summary()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
