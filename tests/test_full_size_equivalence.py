"""Full-size equivalence of the engine paths, and the work behind their speed.

Three studies, at the size an architect runs them:

* a 500-draw Monte Carlo over the default factor set of a hybrid-bonded
  split of an ORIN-class 2D reference, with the AV workload;
* the 40-point grid of that reference: every Table 1 integration × every
  Table 2 fab location;
* the 87,850-point vectorized design-space grid: every case-study split
  of the reference × 251 wafer diameters in [250, 500] mm × the Table 2
  grids plus five raw carbon intensities.

Each must equal the *naive* path bit for bit: one fresh
:class:`~repro.core.model.CarbonModel` per point, with every module-level
cache cleared before it. The Monte Carlo must also equal the scalar
reference; the vectorized grid must equal the scalar engine on every
point, errors included.

Nothing here is timed; ``BENCHMARK.json`` and ``perfbench/`` measure
speed. What is pinned instead is the work that makes the engine fast:
the :class:`~repro.engine.EngineStats` hit/miss pairs, the Davis moment
computations, and the vectorized core's one resolve per design. An
engine that loses a memo layer fails here as a changed count.
"""

from __future__ import annotations

import random

import numpy as np

from repro.analysis.uncertainty import _monte_carlo_scalar, monte_carlo
from repro.config.grid import TABLE2_LOCATIONS
from repro.config.integration import TABLE1_INTEGRATIONS
from repro.config.parameters import DEFAULT_PARAMETERS
from repro.core import dpw
from repro.core.design import ChipDesign
from repro.core.model import CarbonModel
from repro.core.operational import Workload
from repro.engine import BatchEvaluator, EvalPoint
from repro.errors import DesignError, ParameterError
from repro.rent import davis
from repro.seeds import DEFAULT_SEED
from repro.uncertainty import table2_factor_set
from repro.vec import DesignGrid, evaluate_grid
from tests.test_memo_work import counts

WORKLOAD = Workload.autonomous_vehicle()
REFERENCE = ChipDesign.planar_2d(
    "orin_class_ref", "7nm", gate_count=17.0e9, throughput_tops=254.0
)
STACKED = ChipDesign.homogeneous_split(REFERENCE, "hybrid_3d")
FACTORS = list(table2_factor_set(node="7nm", integration="hybrid_3d"))
SAMPLES = 500

#: The vectorized grid's axes: 251 wafer steps over [250, 500] mm and
#: the named grids plus raw g CO2/kWh intensities.
VEC_WAFERS = tuple(250.0 + i * 250.0 / 250 for i in range(251))
VEC_LOCATIONS = TABLE2_LOCATIONS + (30.0, 120.0, 480.0, 650.0, 700.0)
NAIVE_SAMPLE = 400


def clear_model_caches() -> None:
    """Reset every module-level cache to the cold state."""
    davis._region_moments.cache_clear()
    dpw.dies_per_wafer.cache_clear()


def naive_report(design, params, fab_location, workload):
    """The pre-engine path: a fresh model with every cache cleared."""
    clear_model_caches()
    return CarbonModel(design, params, fab_location).evaluate(workload)


def test_monte_carlo_matches_every_path():
    engine = monte_carlo(
        STACKED, factors=FACTORS, workload=WORKLOAD, samples=SAMPLES,
        seed=DEFAULT_SEED,
    )
    scalar = _monte_carlo_scalar(
        STACKED, factors=FACTORS, workload=WORKLOAD, samples=SAMPLES,
        seed=DEFAULT_SEED,
    )
    rng = np.random.default_rng(DEFAULT_SEED)
    naive_base = naive_report(
        STACKED, DEFAULT_PARAMETERS, "taiwan", WORKLOAD
    ).total_kg
    naive_draws = []
    for _ in range(SAMPLES):
        params = DEFAULT_PARAMETERS
        for factor in FACTORS:
            params = factor.apply(
                params, float(rng.triangular(factor.low, 1.0, factor.high))
            )
        naive_draws.append(
            naive_report(STACKED, params, "taiwan", WORKLOAD).total_kg
        )

    assert len(engine.samples_kg) == SAMPLES
    assert engine.samples_kg == tuple(naive_draws) == scalar.samples_kg
    assert engine.base_kg == naive_base == scalar.base_kg


def test_monte_carlo_work_counts():
    """The draws share one structural resolve: the two dies' Davis
    moments are computed once each for the whole study, where the naive
    path computes them again on every draw."""
    clear_model_caches()
    evaluator = BatchEvaluator()
    monte_carlo(
        STACKED, factors=FACTORS, workload=WORKLOAD, samples=SAMPLES,
        seed=DEFAULT_SEED, evaluator=evaluator,
    )
    assert counts(evaluator.stats) == {
        "resolve": (0, 501), "structure": (1000, 2), "embodied": (0, 501),
        "bandwidth": (0, 501), "operational": (500, 1), "points": 501,
    }
    moments = davis._region_moments.cache_info()
    assert (moments.hits, moments.misses) == (2, 2)
    assert dpw.dies_per_wafer.cache_info().misses == 2


def grid_points() -> "list[EvalPoint]":
    points = []
    for name in TABLE1_INTEGRATIONS:
        design = (
            REFERENCE if name == "2d"
            else ChipDesign.homogeneous_split(REFERENCE, name)
        )
        for location in TABLE2_LOCATIONS:
            points.append(EvalPoint(
                design=design, fab_location=location, workload=WORKLOAD,
                label=f"{name}@{location}",
            ))
    return points


def test_grid_matches_the_naive_path_with_one_resolve_per_design():
    points = grid_points()
    assert len(points) == 40
    naive = [
        naive_report(
            point.design, DEFAULT_PARAMETERS, point.fab_location,
            point.workload,
        ).total_kg
        for point in points
    ]
    clear_model_caches()
    evaluator = BatchEvaluator()
    reports = evaluator.evaluate_many(points)
    assert [report.total_kg for report in reports] == naive
    # 8 designs × 5 locations: each design resolves once and prices its
    # bandwidth and operational stages once; only embodied carbon (the
    # fab grid enters Eq. 16) is priced per point.
    assert counts(evaluator.stats) == {
        "resolve": (32, 8), "structure": (0, 15), "embodied": (0, 40),
        "bandwidth": (32, 8), "operational": (32, 8), "points": 40,
    }
    assert davis._region_moments.cache_info().misses == 4


def test_vectorized_grid_matches_scalar_and_naive_paths():
    grid = DesignGrid.from_axes(
        REFERENCE, wafer_diameters_mm=VEC_WAFERS,
        fab_locations=VEC_LOCATIONS, workload="av",
    )
    n = len(grid.points)
    assert n == 87_850 and len(grid.designs) == 35

    clear_model_caches()
    vec_engine = BatchEvaluator()
    result = evaluate_grid(grid, evaluator=vec_engine)
    totals = result.column("total_kg")
    valid = result.valid_mask

    scalar = BatchEvaluator()
    wafer_params: dict = {}
    scalar_totals = np.full(n, np.nan)
    scalar_errors: "list[str | None]" = [None] * n
    for index, point in enumerate(grid.points):
        params = wafer_params.get(point.wafer_diameter_mm)
        if params is None:
            params = wafer_params[point.wafer_diameter_mm] = (
                scalar.params.with_wafer_diameter(point.wafer_diameter_mm)
            )
        try:
            report = scalar.report(
                point.design, workload=grid.workload, params=params,
                fab_location=point.fab_location,
            )
        except (DesignError, ParameterError) as error:
            scalar_errors[index] = str(error)
            continue
        scalar_totals[index] = report.total_kg
    assert scalar_errors == list(result.errors)
    assert np.array_equal(scalar_totals[valid], totals[valid])

    sample = sorted(random.Random(DEFAULT_SEED).sample(range(n), NAIVE_SAMPLE))
    for index in sample:
        point = grid.points[index]
        params = DEFAULT_PARAMETERS.with_wafer_diameter(
            point.wafer_diameter_mm
        )
        try:
            report = naive_report(
                point.design, params, point.fab_location, grid.workload
            )
        except (DesignError, ParameterError) as error:
            assert result.errors[index] == str(error), point.label
            continue
        assert result.errors[index] is None, point.label
        assert report.total_kg == float(totals[index]), point.label

    # The work behind the vectorized core's speed: one resolve per design
    # (the grid holds only splits within Table 1's die limits, and every
    # point prices), no per-point pipeline at all, and the points priced
    # in 25 shape groups. The scalar engine resolves as often, but runs
    # the per-point pipeline once for every point.
    priced = {grid.points[index].design.name for index in np.flatnonzero(valid)}
    assert len(priced) == 35
    assert (result.group_count, result.block_count) == (25, 35)
    assert result.error_count == 0
    assert counts(vec_engine.stats) == {
        "resolve": (0, 35), "structure": (26, 64), "embodied": (0, 0),
        "bandwidth": (0, 35), "operational": (0, 35), "points": 0,
    }
    assert scalar.stats.resolve_misses == 35
    assert scalar.stats.points_evaluated == n - result.error_count
