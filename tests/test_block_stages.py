"""A block of points is priced stage by stage, one call per stage.

``BatchEvaluator.evaluate_many`` runs each stage — resolve, bandwidth,
operational, embodied — once over the whole block. These tests pin what
that must keep from pricing the points one at a time:

* the same reports, bit for bit, as one ``report()`` per point on a
  fresh evaluator, with the same ``EngineStats`` counts and, when a
  point fails, the same first error — on the long-lived evaluator and
  on a request pass (``scoped()``);
* one ``stage.<name>`` span per stage per block, with ``points`` and
  ``misses`` attrs, while the stage histogram still counts every miss.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.design import ChipDesign
from repro.core.operational import Workload
from repro.engine import BatchEvaluator, EvalPoint
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.service.dispatcher import Dispatcher
from repro.service.schema import BatchRequest, EvaluateRequest
from repro.service.store import ResultStore

from .test_path_agreement import LOCATIONS, WORKLOADS, designs

STAGES = ("resolve", "bandwidth", "operational", "embodied")
#: A fab location no grid table knows: its point fails before resolve.
UNKNOWN_FAB = "atlantis"
#: A workload used where no grid table knows: its point fails at the
#: operational stage, after every other point has resolved.
LOST = Workload(name="lost", total_tera_ops=1.0e9, use_location="lemuria",
                lifetime_years=2.0)


@st.composite
def blocks(draw) -> "list[EvalPoint]":
    """Points over a few designs: one design object at several fab
    locations and workloads, repeated points, explicit backends, and
    sometimes points that fail, at different stages."""
    pool = draw(st.lists(designs(), min_size=1, max_size=3))
    point = st.builds(
        EvalPoint,
        design=st.sampled_from(pool),
        fab_location=st.sampled_from(LOCATIONS),
        workload=st.sampled_from(WORKLOADS),
        backend=st.sampled_from((None, None, "repro3d", "act")),
    )
    points = draw(st.lists(point, min_size=1, max_size=6))
    points += draw(st.lists(st.sampled_from(points), max_size=2))
    failing = draw(st.lists(st.sampled_from((
        {"fab_location": UNKNOWN_FAB},
        {"fab_location": "taiwan", "workload": LOST},
    )), max_size=2))
    for fields in failing:
        bad = draw(st.sampled_from(points))
        points.insert(
            draw(st.integers(0, len(points))),
            EvalPoint(bad.design, **{"workload": bad.workload, **fields}),
        )
    return points


def design(name: str, gates: float, integration: str) -> ChipDesign:
    reference = ChipDesign.planar_2d(
        name, "7nm", gate_count=gates, throughput_tops=254.0
    )
    return ChipDesign.homogeneous_split(reference, integration, n_dies=2)


def one_at_a_time(engine: BatchEvaluator, points) -> "tuple[list, object]":
    """Each point through its own ``report()`` (``backend_report()`` for
    a named backend) → (reports, first error)."""
    reports, first = [], None
    for point in points:
        try:
            if point.backend is None:
                report = engine.report(
                    point.design, workload=point.workload,
                    fab_location=point.fab_location,
                )
            else:
                report = engine.backend_report(
                    point.design, point.backend,
                    fab_location=point.fab_location, workload=point.workload,
                )
        except Exception as error:  # noqa: BLE001 - compared below
            report = None
            first = first if first is not None else error
        reports.append(report)
    return reports, first


def as_one_block(engine: BatchEvaluator, points) -> "tuple[list, object]":
    try:
        return engine.evaluate_many(points), None
    except Exception as error:  # noqa: BLE001 - compared below
        return None, error


def assert_same(block, single) -> None:
    (reports, error), (expected, expected_error) = block, single
    if expected_error is not None:
        assert type(error) is type(expected_error)
        assert str(error) == str(expected_error)
        return
    assert error is None
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in expected]


@given(points=blocks())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_block_prices_as_its_points_one_at_a_time(points):
    engine, reference = BatchEvaluator(), BatchEvaluator()
    assert_same(as_one_block(engine, points),
                one_at_a_time(reference, points))
    assert engine.stats.as_dict() == reference.stats.as_dict()

    # The same through request passes: their counts fold into the parents.
    engine, reference = BatchEvaluator(), BatchEvaluator()
    with engine.scoped() as child:
        block = as_one_block(child, points)
    with reference.scoped() as child:
        single = one_at_a_time(child, points)
    assert_same(block, single)
    assert engine.stats.as_dict() == reference.stats.as_dict()


def test_a_traced_batch_opens_one_span_per_stage():
    """A store-backed ``/batch`` of N new points: one span per stage
    with ``points`` = ``misses`` = N, and one histogram observation per
    miss."""
    integrations = ("hybrid_3d", "mcm", "m3d", "emib", "micro_3d")
    batch = tuple(
        EvaluateRequest(
            design=design(f"span{i}", 4e9 + i * 1e8, integration),
            workload=WORKLOADS[1], fab_location="taiwan",
        )
        for i, integration in enumerate(integrations)
    )
    n = len(batch)
    with ResultStore() as store:
        dispatcher = Dispatcher(store=store)
        with obs_trace.trace("batch") as root:
            entries = dispatcher.batch(BatchRequest(points=batch))
        assert {entry["cache"] for entry in entries} == {"computed"}
        stats = dispatcher.evaluator.stats
    spans = [
        span for span in obs_trace.collector.spans(root.trace_id)
        if span.name.startswith("stage.")
    ]
    assert sorted(span.name for span in spans) == sorted(
        f"stage.{stage}" for stage in STAGES
    )
    for span in spans:
        assert span.attrs == {"backend": "repro3d", "points": n, "misses": n}
    hist = dispatcher.metrics.get("carbon3d_stage_duration_seconds")
    for stage in STAGES:
        misses = getattr(stats, f"{stage}_misses")
        assert misses == n
        assert hist.labels(stage=stage, backend="repro3d").count == misses


def test_stage_counts_and_histogram_agree_on_a_mixed_block():
    """Repeats are hits; the histogram counts exactly the misses."""
    registry = MetricsRegistry()
    engine = BatchEvaluator(metrics=registry)
    mixed = design("mixed", 6e9, "hybrid_3d")
    points = [
        EvalPoint(mixed, fab_location=location, workload=workload)
        for location in ("taiwan", "usa")
        for workload in WORKLOADS
    ] * 2
    engine.evaluate_many(points)
    stats = engine.stats
    hist = registry.get("carbon3d_stage_duration_seconds")
    assert stats.points_evaluated == len(points)
    assert (stats.resolve_misses, stats.resolve_hits) == (1, len(points) - 1)
    for stage in STAGES:
        assert hist.labels(stage=stage, backend="repro3d").count == getattr(
            stats, f"{stage}_misses"
        )
