"""Engine performance benches: naive-vs-engine timings → ``BENCH_engine.json``.

Three workloads, sized like the studies an architect would actually run:

* **monte_carlo** — a 500-draw Monte-Carlo over the default factor set of
  a hybrid-bonded 3D split of an ORIN-class 2D reference, with the AV
  workload attached;
* **grid** — an 8-integration × 5-fab-location lifecycle grid of the
  same reference;
* **grid_vectorized** — a ≥10⁵-point design-space grid (the full
  case-study integration × die-count span crossed with a dense wafer
  axis and a named + raw-CI location mix) through the structure-of-
  arrays core (:mod:`repro.vec`), against the scalar engine loop and
  the naive per-point path (see :func:`bench_grid_vectorized`).

The *naive* timings reproduce the pre-engine behaviour exactly: one
fresh :class:`CarbonModel` per point with every module-level cache
cleared before each evaluation (the seed code had no caches at all).
The *engine* timings run the same points through one
:class:`BatchEvaluator` (fresh evaluator each pass). Both sides take
the best of ``repeats`` passes, and both must produce bit-identical
totals — the bench asserts this, so the numbers it reports are for
equivalent work under like-for-like timing.

Invoked by ``python -m repro.cli bench`` and by
``benchmarks/test_perf_engine.py`` / ``benchmarks/perf_report.py``.
"""

from __future__ import annotations

import time

from ..analysis.sensitivity import default_factors
from ..analysis.uncertainty import _monte_carlo_scalar, monte_carlo
from ..config.parameters import DEFAULT_PARAMETERS
from ..core import dpw
from ..core.design import ChipDesign
from ..core.model import CarbonModel
from ..core.operational import Workload
from ..errors import ParameterError
from ..rent import davis
from ..seeds import DEFAULT_SEED
from .evaluator import BatchEvaluator, EvalPoint

#: Integration technologies of the grid bench (the full Table 1 span).
GRID_INTEGRATIONS = (
    "2d", "micro_3d", "hybrid_3d", "m3d", "mcm", "info", "emib",
    "si_interposer",
)
#: Fab locations of the grid bench (Table 2's 30–700 g/kWh span).
GRID_LOCATIONS = ("iceland", "france", "usa", "taiwan", "india")

#: Fab-location axis of the vectorized-grid bench: the named Table 2
#: grids plus raw g CO2/kWh intensities (both spellings the grid API
#: accepts, so the bench exercises the interned-CI path for each).
VEC_GRID_LOCATIONS = (
    "iceland", "france", "usa", "taiwan", "india",
    30.0, 120.0, 480.0, 650.0, 700.0,
)
#: Wafer axis of the vectorized-grid bench spans [250, 500] mm; at the
#: default 251 steps the full grid crosses ≥10⁵ points.
VEC_GRID_WAFER_SPAN_MM = (250.0, 500.0)


def clear_model_caches() -> None:
    """Reset every module-level cache to the cold (seed) state."""
    davis._region_moments.cache_clear()
    dpw.dies_per_wafer.cache_clear()


def reference_design() -> ChipDesign:
    """The ORIN-class 2D reference both benches build from."""
    return ChipDesign.planar_2d(
        "bench_ref", "7nm", gate_count=17.0e9, throughput_tops=254.0
    )


def _grid_points(workload: Workload) -> "list[EvalPoint]":
    reference = reference_design()
    points = []
    for name in GRID_INTEGRATIONS:
        if name == "2d":
            design = reference
        else:
            design = ChipDesign.homogeneous_split(reference, name)
        for location in GRID_LOCATIONS:
            points.append(
                EvalPoint(
                    design=design,
                    fab_location=location,
                    workload=workload,
                    label=f"{name}@{location}",
                )
            )
    return points


def bench_monte_carlo(samples: int = 500, seed: int = DEFAULT_SEED,
                      repeats: int = 3) -> dict:
    """Time the naive scalar MC against the engine MC; assert equivalence.

    Also times the engine's two opt-in worker *modes* at the same draw
    count, each at its own sensible default — thread mode with
    ``max(2, default)`` threads (one thread is just the serial loop),
    process mode with :func:`repro.engine.parallel.default_worker_count`
    forked workers (the usable CPU count: forking past the affinity mask
    only adds overhead, so on a single-CPU host process mode runs the
    serial loop fork-free). Thread workers are GIL-bound on this
    pure-Python pipeline and never beat serial; process workers scale
    with cores. Both modes must reproduce the serial engine's exact
    samples, and the report records both timings (plus the worker
    counts) so the trajectory shows the mode comparison per machine.
    """
    if repeats < 1:
        raise ParameterError(f"need >= 1 bench repeat, got {repeats}")
    from .parallel import default_worker_count

    thread_workers = max(2, default_worker_count())
    process_workers = default_worker_count()
    design = ChipDesign.homogeneous_split(reference_design(), "hybrid_3d")
    workload = Workload.autonomous_vehicle()
    factors = default_factors(node="7nm", integration="hybrid_3d")

    # The seed code had no module-level caches, so the honest naive
    # timing re-clears the (new in this PR) Davis/DPW memos every draw —
    # exactly the work the pre-engine path did per draw.
    import numpy as np

    params = DEFAULT_PARAMETERS
    naive_s = float("inf")
    naive_base = None
    naive_draws: list[float] = []
    for _ in range(repeats):  # best-of-repeats, same as the engine side
        rng = np.random.default_rng(seed)
        clear_model_caches()
        start = time.perf_counter()
        naive_base = CarbonModel(
            design, params, "taiwan"
        ).evaluate(workload).total_kg
        naive_draws = []
        for _ in range(samples):
            clear_model_caches()
            perturbed = params
            for factor in factors:
                perturbed = factor.apply(
                    perturbed,
                    float(rng.triangular(factor.low, 1.0, factor.high)),
                )
            report = CarbonModel(design, perturbed, "taiwan").evaluate(workload)
            naive_draws.append(report.total_kg)
        naive_s = min(naive_s, time.perf_counter() - start)

    engine_s = float("inf")
    engine = None
    for _ in range(repeats):
        clear_model_caches()
        start = time.perf_counter()
        engine = monte_carlo(
            design, factors=factors, workload=workload, samples=samples,
            seed=seed,
        )
        engine_s = min(engine_s, time.perf_counter() - start)

    thread_s = float("inf")
    thread_result = None
    for _ in range(repeats):
        clear_model_caches()
        start = time.perf_counter()
        thread_result = monte_carlo(
            design, factors=factors, workload=workload, samples=samples,
            seed=seed, workers=thread_workers, worker_mode="thread",
        )
        thread_s = min(thread_s, time.perf_counter() - start)

    process_s = float("inf")
    process_result = None
    for _ in range(repeats):
        clear_model_caches()
        start = time.perf_counter()
        process_result = monte_carlo(
            design, factors=factors, workload=workload, samples=samples,
            seed=seed, workers="process",
        )
        process_s = min(process_s, time.perf_counter() - start)

    scalar = _monte_carlo_scalar(
        design, factors=factors, workload=workload, samples=samples, seed=seed
    )
    identical = (
        engine.samples_kg == tuple(naive_draws) == scalar.samples_kg
        == thread_result.samples_kg == process_result.samples_kg
        and engine.base_kg == naive_base == scalar.base_kg
    )
    if not identical:
        raise AssertionError(
            "engine Monte-Carlo diverged from the scalar reference"
        )
    return {
        "samples": samples,
        "factors": len(factors),
        "naive_s": naive_s,
        "engine_s": engine_s,
        "speedup": naive_s / engine_s,
        "thread_workers": thread_workers,
        "process_workers": process_workers,
        "thread_s": thread_s,
        "process_s": process_s,
        "process_speedup_vs_thread": thread_s / process_s,
        "identical": True,
    }


def bench_grid(repeats: int = 3) -> dict:
    """Time the naive per-point grid against ``evaluate_many``."""
    if repeats < 1:
        raise ParameterError(f"need >= 1 bench repeat, got {repeats}")
    workload = Workload.autonomous_vehicle()
    points = _grid_points(workload)

    naive_s = float("inf")
    naive_totals: list[float] = []
    for _ in range(repeats):  # best-of-repeats, same as the engine side
        naive_totals = []
        clear_model_caches()
        start = time.perf_counter()
        for point in points:
            clear_model_caches()
            report = CarbonModel(
                point.design, fab_location=point.fab_location
            ).evaluate(point.workload)
            naive_totals.append(report.total_kg)
        naive_s = min(naive_s, time.perf_counter() - start)

    engine_s = float("inf")
    engine_totals = None
    for _ in range(repeats):
        clear_model_caches()
        evaluator = BatchEvaluator()
        start = time.perf_counter()
        reports = evaluator.evaluate_many(points)
        engine_s = min(engine_s, time.perf_counter() - start)
        engine_totals = [report.total_kg for report in reports]

    if engine_totals != naive_totals:
        raise AssertionError("engine grid diverged from the scalar reference")
    return {
        "points": len(points),
        "integrations": len(GRID_INTEGRATIONS),
        "locations": len(GRID_LOCATIONS),
        "naive_s": naive_s,
        "engine_s": engine_s,
        "speedup": naive_s / engine_s,
        "identical": True,
    }


def bench_grid_vectorized(
    repeats: int = 3,
    wafer_steps: int = 251,
    naive_points: int = 400,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Time the vectorized core on a ~10⁵-point design-space grid.

    Three tiers over the same grid (the full case-study integration ×
    die-count span crossed with a dense wafer axis and
    :data:`VEC_GRID_LOCATIONS`):

    * **vectorized** — one :meth:`BatchEvaluator.evaluate_grid` call
      (shape-group planning + columnar math), best of ``repeats``;
    * **scalar** — the per-point engine loop the vectorized core
      replaces (``report()`` with a per-wafer parameter override),
      timed once over the full grid — at seconds per pass its relative
      timer noise is negligible;
    * **naive** — the pre-engine path (fresh :class:`CarbonModel`, every
      cache cleared per point), timed on a deterministic ``naive_points``
      subsample and extrapolated to the full grid
      (``naive_extrapolated`` marks the estimate).

    Equivalence is asserted, not assumed: scalar totals must be
    bit-identical to the vectorized ``total_kg`` column on every valid
    point (and the error sets must align point-for-point); the naive
    subsample must match the same column at its indices.
    """
    if repeats < 1:
        raise ParameterError(f"need >= 1 bench repeat, got {repeats}")
    if wafer_steps < 2:
        raise ParameterError(f"need >= 2 wafer steps, got {wafer_steps}")
    import random

    import numpy as np

    from ..errors import DesignError
    from ..vec import DesignGrid

    low, high = VEC_GRID_WAFER_SPAN_MM
    wafers = tuple(
        low + i * (high - low) / (wafer_steps - 1)
        for i in range(wafer_steps)
    )
    grid = DesignGrid.from_axes(
        reference_design(),
        wafer_diameters_mm=wafers,
        fab_locations=VEC_GRID_LOCATIONS,
        workload="av",
    )
    n = len(grid.points)

    vectorized_s = float("inf")
    result = None
    for _ in range(repeats):
        clear_model_caches()
        evaluator = BatchEvaluator()
        start = time.perf_counter()
        result = evaluator.evaluate_grid(grid)
        vectorized_s = min(vectorized_s, time.perf_counter() - start)
    vec_totals = result.column("total_kg")

    # Scalar engine loop: same memoized engine, one point at a time.
    clear_model_caches()
    evaluator = BatchEvaluator()
    wafer_params: dict = {}
    scalar_totals = np.full(n, np.nan)
    scalar_errors: "list[str | None]" = [None] * n
    start = time.perf_counter()
    for index, point in enumerate(grid.points):
        params = wafer_params.get(point.wafer_diameter_mm)
        if params is None:
            params = evaluator.params.with_wafer_diameter(
                point.wafer_diameter_mm
            )
            wafer_params[point.wafer_diameter_mm] = params
        try:
            report = evaluator.report(
                point.design, workload=grid.workload, params=params,
                fab_location=point.fab_location,
            )
        except (DesignError, ParameterError) as error:
            scalar_errors[index] = str(error)
            continue
        scalar_totals[index] = report.total_kg
    scalar_s = time.perf_counter() - start

    valid = result.valid_mask
    identical = (
        all(
            (a is None) == (b is None)
            for a, b in zip(scalar_errors, result.errors)
        )
        and np.array_equal(scalar_totals[valid], vec_totals[valid])
    )
    if not identical:
        raise AssertionError(
            "vectorized grid diverged from the scalar engine"
        )

    # Naive tier: deterministic subsample, extrapolated to the grid.
    sample = sorted(
        random.Random(seed).sample(range(n), min(naive_points, n))
    )
    naive_sampled_s = float("inf")
    for _ in range(repeats):
        naive_totals = []
        naive_errors = []
        clear_model_caches()
        start = time.perf_counter()
        for index in sample:
            point = grid.points[index]
            clear_model_caches()
            params = DEFAULT_PARAMETERS.with_wafer_diameter(
                point.wafer_diameter_mm
            )
            try:
                report = CarbonModel(
                    point.design, params, point.fab_location
                ).evaluate(grid.workload)
            except (DesignError, ParameterError) as error:
                naive_totals.append(None)
                naive_errors.append(str(error))
                continue
            naive_totals.append(report.total_kg)
            naive_errors.append(None)
        naive_sampled_s = min(naive_sampled_s, time.perf_counter() - start)
    for position, index in enumerate(sample):
        vec_value = float(vec_totals[index])
        naive_value = naive_totals[position]
        if (naive_errors[position] is None) != (result.errors[index] is None):
            raise AssertionError(
                "vectorized grid errors diverged from the naive path"
            )
        if naive_value is not None and naive_value != vec_value:
            raise AssertionError(
                "vectorized grid diverged from the naive per-point path"
            )
    naive_s = naive_sampled_s * (n / len(sample))

    return {
        "points": n,
        "designs": len(grid.designs),
        "wafer_steps": wafer_steps,
        "locations": len(VEC_GRID_LOCATIONS),
        "shape_groups": result.group_count,
        "design_blocks": result.block_count,
        "grid_errors": result.error_count,
        "vectorized_s": vectorized_s,
        "scalar_s": scalar_s,
        "naive_sampled_points": len(sample),
        "naive_sampled_s": naive_sampled_s,
        "naive_s": naive_s,
        "naive_extrapolated": True,
        "speedup_vs_scalar": scalar_s / vectorized_s,
        "speedup": naive_s / vectorized_s,
        "identical": True,
    }


def run_benches(
    output_path: "str | None" = "BENCH_engine.json",
    samples: int = 500,
    repeats: int = 3,
) -> dict:
    """Run the benches and (optionally) write the JSON report.

    The vectorized-grid bench scales its wafer axis with the draw
    count: the full ≥10⁵-point grid at the default 500 draws, a
    21-step (~8.6k-point) smoke grid under CI's ``--quick`` — the
    equivalence assertions run either way.
    """
    wafer_steps = 251 if samples >= 500 else 21
    result = {
        "bench": "engine",
        "monte_carlo": bench_monte_carlo(samples=samples, repeats=repeats),
        "grid": bench_grid(repeats=repeats),
        "grid_vectorized": bench_grid_vectorized(
            repeats=repeats, wafer_steps=wafer_steps
        ),
    }
    if output_path:
        from ..io.results import write_bench_report

        write_bench_report(result, output_path)
    return result


def format_benches(result: dict) -> str:
    """One-line-per-bench human rendering."""
    mc = result["monte_carlo"]
    grid = result["grid"]
    lines = [
        f"monte_carlo  {mc['samples']} draws × {mc['factors']} factors: "
        f"naive {mc['naive_s'] * 1e3:.1f}ms → engine "
        f"{mc['engine_s'] * 1e3:.1f}ms "
        f"({mc['speedup']:.1f}×, identical={mc['identical']})",
    ]
    if "process_s" in mc:
        lines.append(
            f"mc workers   thread×{mc['thread_workers']} "
            f"{mc['thread_s'] * 1e3:.1f}ms vs process×{mc['process_workers']} "
            f"{mc['process_s'] * 1e3:.1f}ms "
            f"(process {mc['process_speedup_vs_thread']:.2f}× vs thread)"
        )
    lines.append(
        f"grid         {grid['points']} points "
        f"({grid['integrations']} integrations × {grid['locations']} "
        f"locations): naive {grid['naive_s'] * 1e3:.1f}ms → engine "
        f"{grid['engine_s'] * 1e3:.1f}ms ({grid['speedup']:.1f}×, "
        f"identical={grid['identical']})"
    )
    vec = result.get("grid_vectorized")
    if vec is not None:
        lines.append(
            f"grid_vec     {vec['points']:,} points ({vec['designs']} "
            f"designs × {vec['wafer_steps']} wafers × {vec['locations']} "
            f"locations, {vec['shape_groups']} shape-groups): naive "
            f"~{vec['naive_s']:.2f}s (est) → scalar {vec['scalar_s']:.2f}s "
            f"→ vectorized {vec['vectorized_s'] * 1e3:.1f}ms "
            f"({vec['speedup']:.0f}× vs naive, "
            f"{vec['speedup_vs_scalar']:.0f}× vs scalar, "
            f"identical={vec['identical']})"
        )
    return "\n".join(lines)
