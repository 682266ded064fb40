"""Batch engine: equivalence with the scalar path, memo behaviour, caches."""

import math
import sys
import threading

import numpy as np
import pytest

from repro import ChipDesign, DEFAULT_PARAMETERS, Workload
from repro.analysis.optimizer import search_designs
from repro.analysis.sensitivity import tornado
from repro.analysis.uncertainty import (
    UncertaintyResult,
    _monte_carlo_scalar,
    comparison_robustness,
    monte_carlo,
)
from repro.api import Session, StudySpec
from repro.core.model import CarbonModel
from repro.engine import BatchEvaluator, EvalPoint
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import fingerprint as fp
from repro.resilience import FaultError, FaultPlan, FaultRule
from repro.rent.davis import WirelengthDistribution, _region_moments
from repro.uncertainty import FactorSpec, table2_factor_set
from repro.uncertainty.plan import PerturbationPlan as ParameterPerturber
from repro.uncertainty.plan import draw_multipliers as triangular_multipliers
from repro.studies.sweep import (
    sweep_fab_locations,
    sweep_integrations,
    sweep_wafer_diameters,
)


@pytest.fixture()
def reference():
    return ChipDesign.planar_2d(
        "engine_ref", "7nm", gate_count=17.0e9, throughput_tops=254.0
    )


@pytest.fixture()
def stacked(reference):
    return ChipDesign.homogeneous_split(reference, "hybrid_3d")


@pytest.fixture()
def workload():
    return Workload.autonomous_vehicle()


# -- equivalence: engine vs scalar path ------------------------------------


def test_monte_carlo_engine_matches_scalar(stacked, workload):
    engine = monte_carlo(stacked, workload=workload, samples=60)
    scalar = _monte_carlo_scalar(stacked, workload=workload, samples=60)
    assert engine.samples_kg == scalar.samples_kg  # same floats, same order
    assert engine.base_kg == scalar.base_kg


@pytest.mark.parametrize(
    "integration",
    ["micro_3d", "m3d", "mcm", "info", "emib", "si_interposer"],
)
def test_monte_carlo_matches_scalar_per_integration(
    reference, workload, integration
):
    """Pins the record-free embodied total against the report path.

    Covers the RDL (info), organic (mcm), EMIB-bridge and silicon-
    interposer substrate branches plus the M3D and micro-bump 3D die
    paths: ``embodied_totals`` sums the same equation terms that the
    report path wraps in records, so any difference in summation breaks
    exact equality here.
    """
    design = ChipDesign.homogeneous_split(reference, integration)
    engine = monte_carlo(design, workload=workload, samples=25)
    scalar = _monte_carlo_scalar(design, workload=workload, samples=25)
    assert engine.samples_kg == scalar.samples_kg
    assert engine.base_kg == scalar.base_kg


def test_monte_carlo_matches_scalar_for_2d_design(reference, workload):
    engine = monte_carlo(reference, workload=workload, samples=25)
    scalar = _monte_carlo_scalar(reference, workload=workload, samples=25)
    assert engine.samples_kg == scalar.samples_kg


def test_monte_carlo_matches_scalar_on_sequential_fallback(stacked, workload):
    """Two factors on one field defeat the grouped plan, so every draw
    takes the sequential ``apply`` chain, as on the scalar path."""
    factors = list(table2_factor_set(node="7nm", integration="hybrid_3d"))
    first = factors[0]
    factors.append(FactorSpec(f"{first.name}#2", 0.9, 1.1, first.target))
    assert ParameterPerturber(factors, DEFAULT_PARAMETERS)._plan is None
    engine = monte_carlo(
        stacked, factors=factors, workload=workload, samples=40
    )
    scalar = _monte_carlo_scalar(
        stacked, factors=factors, workload=workload, samples=40
    )
    assert engine.samples_kg == scalar.samples_kg


def test_sweep_integrations_matches_naive_path(reference, workload):
    points = sweep_integrations(reference, workload=workload)
    for point in points:
        params = DEFAULT_PARAMETERS
        if params.integration_spec(point.label).is_2d:
            design = reference
        else:
            design = ChipDesign.homogeneous_split(reference, point.label)
        naive = CarbonModel(design, params, "taiwan").evaluate(workload)
        assert point.report.total_kg == naive.total_kg
        assert point.report.embodied_kg == naive.embodied_kg
        assert point.report.valid == naive.valid


def test_sweep_fab_locations_resolves_once(stacked):
    evaluator = BatchEvaluator()
    points = sweep_fab_locations(stacked, evaluator=evaluator)
    assert len(points) == 5
    assert evaluator.stats.resolve_misses == 1
    assert evaluator.stats.resolve_hits == len(points) - 1
    # and the totals match the naive per-location path
    for point in points:
        naive = CarbonModel(stacked, DEFAULT_PARAMETERS, point.label).evaluate()
        assert point.report.total_kg == naive.total_kg


def test_sweep_wafer_diameters_resolves_once(stacked):
    evaluator = BatchEvaluator()
    sweep_wafer_diameters(stacked, evaluator=evaluator)
    assert evaluator.stats.resolve_misses == 1


def test_optimizer_matches_naive_path(reference, workload):
    """``carbon3d search``'s batch prices every design bit for bit as
    the scalar model does."""
    designs = search_designs(reference)
    with Session() as session:
        points = session.run(StudySpec.batch([
            StudySpec.evaluate(design, workload=workload, label=label)
            for label, design in designs
        ])).to_payload()
    assert [point["label"] for point in points] == [
        label for label, _ in designs
    ]
    assert points[0]["label"] == "2d"
    for (_, design), point in zip(designs, points):
        naive = CarbonModel(
            design, DEFAULT_PARAMETERS, "taiwan"
        ).evaluate(workload)
        assert point["report"]["total_kg"] == naive.total_kg
    assert any(point["report"]["valid"] for point in points)


def test_tornado_matches_naive_path(stacked, workload):
    results = tornado(stacked, workload=workload)
    factors = {
        f.name: f for f in table2_factor_set(node="7nm",
                                             integration="hybrid_3d")
    }
    for res in results:
        factor = factors[res.factor]
        low = CarbonModel(
            stacked, factor.apply(DEFAULT_PARAMETERS, factor.low), "taiwan"
        ).evaluate(workload).total_kg
        high = CarbonModel(
            stacked, factor.apply(DEFAULT_PARAMETERS, factor.high), "taiwan"
        ).evaluate(workload).total_kg
        assert res.low_kg == low
        assert res.high_kg == high


def test_comparison_robustness_probability_range(reference, workload):
    alt = ChipDesign.homogeneous_split(reference, "hybrid_3d")
    p = comparison_robustness(reference, alt, workload=workload, samples=30)
    assert 0.0 <= p <= 1.0


# -- vectorized draws and the perturber ------------------------------------


def test_triangular_multipliers_match_scalar_sequence():
    factors = table2_factor_set(node="7nm", integration="hybrid_3d")
    matrix = triangular_multipliers(factors, samples=50, seed=7)
    rng = np.random.default_rng(7)
    for row in matrix:
        for factor, value in zip(factors, row):
            assert value == rng.triangular(factor.low, 1.0, factor.high)


def test_perturber_fast_path_matches_sequential(stacked):
    factors = table2_factor_set(node="7nm", integration="hybrid_3d")
    perturber = ParameterPerturber(factors, DEFAULT_PARAMETERS)
    assert perturber._plan is not None
    row = [1.3, 0.9, 1.1, 0.7, 1.4, 0.8, 1.01]
    fast = perturber.perturbed(row)
    slow = perturber._sequential(row)
    node_f, node_s = fast.node("7nm"), slow.node("7nm")
    assert node_f == node_s
    assert fast.bandwidth == slow.bandwidth
    assert fast.packaging.get("fcbga") == slow.packaging.get("fcbga")
    # evaluation through either parameter set is identical
    a = CarbonModel(stacked, fast).evaluate().total_kg
    b = CarbonModel(stacked, slow).evaluate().total_kg
    assert a == b


def test_perturber_out_of_range_row_falls_back():
    factors = table2_factor_set(node="7nm", integration="hybrid_3d")
    perturber = ParameterPerturber(factors, DEFAULT_PARAMETERS)
    row = [5.0] + [1.0] * (len(factors) - 1)  # outside triangular support
    fast = perturber.perturbed(row)
    slow = perturber._sequential(row)
    assert fast.node("7nm") == slow.node("7nm")


def test_factor_targets_describe_their_apply():
    """Every built-in factor's target must mirror its apply closure."""
    for integration in ("hybrid_3d", "mcm", "m3d", "2d"):
        for factor in table2_factor_set(node="7nm", integration=integration):
            assert factor.target is not None, factor.name
            base = factor.target.read(DEFAULT_PARAMETERS)
            perturbed = factor.apply(DEFAULT_PARAMETERS, factor.high)
            assert factor.target.read(perturbed) == factor.target.scale(
                base, factor.high
            ), factor.name


# -- fingerprints and cache-hit accounting ----------------------------------


def test_resolve_key_discriminates_resolve_relevant_changes(stacked):
    params = DEFAULT_PARAMETERS
    base = fp.resolve_key(stacked, params)
    same = fp.resolve_key(stacked, params)
    assert base == same and hash(base) == hash(same)
    perturbed = params.with_node_override("7nm", defect_density_per_cm2=0.2)
    assert fp.resolve_key(stacked, perturbed) != base
    # embodied-only perturbations keep the resolve key unchanged
    epa_only = params.with_node_override("7nm", epa_kwh_per_cm2=2.0)
    assert fp.resolve_key(stacked, epa_only) != base  # node record in key
    wafer_only = params.with_wafer_diameter(200.0)
    assert fp.resolve_key(stacked, wafer_only) == base


def test_fingerprint_memo_hit_counts(stacked, workload):
    evaluator = BatchEvaluator()
    evaluator.report(stacked, workload=workload)
    stats = evaluator.stats
    assert stats.resolve_misses == 1
    assert stats.embodied_misses == 1
    assert stats.operational_misses == 1

    # identical point: everything hits, nothing re-resolves
    evaluator.report(stacked, workload=workload)
    stats = evaluator.stats
    assert stats.resolve_misses == 1
    assert stats.resolve_hits >= 1
    assert stats.embodied_hits == 1
    assert stats.operational_hits == 1

    # a wafer-diameter change re-prices embodied but not resolution
    evaluator.report(
        stacked, workload=workload,
        params=DEFAULT_PARAMETERS.with_wafer_diameter(200.0),
    )
    stats = evaluator.stats
    assert stats.resolve_misses == 1
    assert stats.embodied_misses == 2


def test_structure_cache_shared_across_defect_perturbations(stacked):
    """Davis/area structure is reused when only yields change."""
    evaluator = BatchEvaluator()
    evaluator.report(stacked)
    misses_before = evaluator.stats.structure_misses
    perturbed = DEFAULT_PARAMETERS.with_node_override(
        "7nm", defect_density_per_cm2=0.2
    )
    evaluator.report(stacked, params=perturbed)
    stats = evaluator.stats
    assert stats.resolve_misses == 2          # resolution re-ran (yields)
    assert stats.structure_misses == misses_before  # wirelength did not


def test_total_kg_fast_path_matches_report(stacked, workload):
    evaluator = BatchEvaluator()
    total = evaluator.total_kg(stacked, workload=workload, transient=True)
    report = BatchEvaluator().report(stacked, workload=workload)
    assert total == report.total_kg


def test_transient_points_do_not_grow_caches(stacked):
    evaluator = BatchEvaluator()
    for defect in (0.10, 0.11, 0.12, 0.13):
        params = DEFAULT_PARAMETERS.with_node_override(
            "7nm", defect_density_per_cm2=defect
        )
        evaluator.total_kg(stacked, params=params, transient=True)
    assert len(evaluator._caches.resolved) == 0
    assert len(evaluator._caches.embodied) == 0


def test_total_kg_embodied_miss_is_a_faulted_stage(stacked, workload):
    """``total_kg`` prices embodied under the same hook as ``report``."""
    evaluator = BatchEvaluator(faults=FaultPlan(rules=(
        FaultRule("stage.embodied", message="embodied stage down"),
    )))
    with pytest.raises(FaultError, match="embodied stage down"):
        evaluator.total_kg(stacked, workload=workload, transient=True)
    # The rule is spent: the retry prices the same total as the report.
    total = evaluator.total_kg(stacked, workload=workload, transient=True)
    assert total == BatchEvaluator().report(stacked, workload=workload).total_kg


def test_total_kg_observes_every_stage_it_computes(stacked, workload):
    registry = MetricsRegistry()
    evaluator = BatchEvaluator(metrics=registry)
    evaluator.total_kg(stacked, workload=workload)
    hist = registry.get("carbon3d_stage_duration_seconds")
    counts = {
        stage: hist.labels(stage=stage, backend="repro3d").count
        for stage in ("resolve", "embodied", "bandwidth", "operational")
    }
    assert counts == {
        "resolve": 1, "embodied": 1, "bandwidth": 1, "operational": 1,
    }
    # A cached embodied report is reused: no new embodied observation.
    evaluator.report(stacked, workload=workload)
    evaluator.total_kg(stacked, workload=workload)
    assert hist.labels(stage="embodied", backend="repro3d").count == 2


def test_cache_limit_bounds_every_engine_cache(reference, workload):
    """A stream of unique-keyed draws cannot grow the caches past the bound.

    The 2.5D default factor set perturbs ``io_area_ratio``, so each draw
    carries a fresh IntegrationSpec — the worst case for every spec-keyed
    cache.
    """
    design = ChipDesign.homogeneous_split(reference, "si_interposer")
    evaluator = BatchEvaluator(cache_limit=8)
    result = monte_carlo(
        design, workload=workload, samples=30, evaluator=evaluator
    )
    scalar = _monte_carlo_scalar(design, workload=workload, samples=30)
    assert result.samples_kg == scalar.samples_kg  # bounding never skews values
    limit = evaluator.cache_limit
    assert len(evaluator._caches.operational) <= limit
    assert len(evaluator._statics) <= limit
    assert len(evaluator._ci_cache) <= limit
    assert len(evaluator.resolve_cache.die_structure) <= limit
    assert len(evaluator.resolve_cache.die_fast) <= limit


def test_threads_sharing_one_evaluator_match_a_serial_one(reference, workload):
    """The threaded server's request threads share one evaluator: its memo
    layers, structural sub-cache and interning tables must stay correct
    under contention. A bound of 2 makes nearly every insert evict, so
    the eviction loop races too. Its counts must stay exact: every point
    looks each of the four layers up once."""
    designs = [reference] + [
        ChipDesign.homogeneous_split(reference, name)
        for name in ("hybrid_3d", "mcm", "emib", "m3d")
    ]
    locations = ("taiwan", "usa", "iceland", 300.0)
    cases = [(d, loc) for d in designs for loc in locations]
    serial = BatchEvaluator()
    expected = [
        serial.report(d, workload=workload, fab_location=loc).to_dict()
        for d, loc in cases
    ]
    shared = BatchEvaluator(cache_limit=2)
    threads, steps, wrong = 8, 400, []

    def hammer(worker: int) -> None:
        for step in range(steps):
            index = (worker * 5 + step) % len(cases)
            design, location = cases[index]
            try:
                if (worker + step) % 2:
                    got = shared.report(
                        design, workload=workload, fab_location=location
                    )
                else:
                    got = shared.evaluate(EvalPoint(
                        design=design, fab_location=location,
                        workload=workload,
                    ))
            except Exception as error:  # a race must not raise either
                wrong.append((worker, step, error))
                continue
            if got.to_dict() != expected[index]:
                wrong.append((worker, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(index,))
                   for index in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not wrong
    stats = shared.stats
    assert stats.points_evaluated == threads * steps == 3200
    for layer in ("resolve", "embodied", "bandwidth", "operational"):
        lookups = getattr(stats, f"{layer}_hits") + getattr(
            stats, f"{layer}_misses"
        )
        assert lookups == threads * steps, layer


def test_counts_of_finished_threads_are_kept_and_folded(reference):
    """Each thread counts into its own record; a finished thread's counts
    stay in the totals, and its record is folded away rather than kept
    for the evaluator's lifetime."""
    evaluator = BatchEvaluator()
    for _ in range(20):
        worker = threading.Thread(target=evaluator.report, args=(reference,))
        worker.start()
        worker.join()
    stats = evaluator.stats
    assert stats.points_evaluated == 20
    assert (stats.resolve_misses, stats.resolve_hits) == (1, 19)
    assert len(evaluator._book._live) <= 2


REMOVED_FAN_OUT_OPTIONS = [
    ("BatchEvaluator", "workers", 2),
    ("BatchEvaluator", "worker_mode", "process"),
    ("BatchEvaluator", "chunk_size", 8),
    ("BatchEvaluator", "shard_deadline_s", 1.0),
    ("evaluate_many", "workers", "process"),
    ("evaluate_many", "worker_mode", "thread"),
    ("evaluate_many", "chunk_size", 8),
    ("monte_carlo", "workers", 2),
    ("monte_carlo", "worker_mode", "process"),
    ("monte_carlo", "chunk_size", 8),
    ("Session", "workers", 2),
    ("Session", "worker_mode", "process"),
]


@pytest.mark.parametrize(
    "entry, option, value", REMOVED_FAN_OUT_OPTIONS,
    ids=[f"{entry}-{option}" for entry, option, _ in REMOVED_FAN_OUT_OPTIONS],
)
def test_removed_fan_out_options_are_refused(reference, entry, option, value):
    """Every entry point evaluates serially on the caller's thread. A
    caller still passing a fan-out knob gets a TypeError naming it, not
    a run that silently ignores it."""
    calls = {
        "BatchEvaluator": lambda **kw: BatchEvaluator(**kw),
        "evaluate_many": lambda **kw: BatchEvaluator().evaluate_many(
            [EvalPoint(design=reference)], **kw
        ),
        "monte_carlo": lambda **kw: monte_carlo(reference, samples=2, **kw),
        "Session": lambda **kw: Session(**kw),
    }
    with pytest.raises(TypeError, match=option):
        calls[entry](**{option: value})


# -- satellite caches --------------------------------------------------------


def test_carbon_model_memoizes_operational_per_workload(stacked, workload):
    model = CarbonModel(stacked)
    first = model.operational(workload)
    assert model.operational(workload) is first
    report = model.evaluate(workload)
    assert report.operational is first
    other = Workload(name="other", total_tera_ops=1.0e9)
    assert model.operational(other) is not first


def test_operational_suite_reuses_workload_cache(stacked, workload):
    from repro import WorkloadSuite

    model = CarbonModel(stacked)
    cached = model.operational(workload)
    suite = model.operational_suite(
        WorkloadSuite(name="s", workloads=(workload,))
    )
    assert suite.per_workload[0] is cached
    assert suite.total_kg == cached.total_kg


def test_davis_moments_lru_cache_hits():
    _region_moments.cache_clear()
    a = _region_moments(1.0e9, 0.62, 1)
    before = _region_moments.cache_info().hits
    b = _region_moments(1.0e9, 0.62, 1)
    assert a == b
    assert _region_moments.cache_info().hits == before + 1


def test_wirelength_distribution_normalizer_cached():
    dist = WirelengthDistribution(gate_count=1.0e6, rent_exponent=0.65)
    first = dist.pdf(10.0)
    assert "_normalizer" in dist.__dict__  # computed once, stored
    assert dist.pdf(10.0) == first
    # pdf still integrates to ~1 over the support
    lo, hi = dist.support
    xs = np.linspace(lo, hi, 20001)
    integral = np.trapezoid([dist.pdf(x) for x in xs], xs)
    assert math.isclose(integral, 1.0, rel_tol=5e-3)


def test_uncertainty_result_statistics_cached_and_consistent():
    samples = tuple(float(x) for x in np.random.default_rng(3).normal(
        100.0, 5.0, size=500
    ))
    result = UncertaintyResult(samples_kg=samples, base_kg=100.0)
    assert result.mean_kg == float(np.mean(samples))
    assert result.std_kg == float(np.std(samples))
    assert result.p50 == float(np.percentile(samples, 50.0))
    assert result.percentile(5.0) == float(np.percentile(samples, 5.0))
    # cached: the sorted array is materialized once and reused
    sorted_first = result._sorted_samples
    assert result._sorted_samples is sorted_first
    assert "mean_kg" in result.__dict__
    assert "p95" in result.__dict__ or result.p95 is not None
