"""The engine memo behind a store-backed dispatcher lives for one request.

With a result store, the store is the cross-request cache: a point an
earlier request computed is a store hit and never reaches the engine.
The dispatcher therefore computes each ``/evaluate``, ``/batch`` and
``/sweep`` request's points through :meth:`BatchEvaluator.scoped` — a
request pass with the long-lived evaluator's configuration and empty
plain-dict memo layers keyed by value, whose counts fold back into the
long-lived ``EngineStats``. These tests pin what that must keep, as work
counts rather than timings:

* the long-lived evaluator's memo layers stay empty under cold traffic,
  while its stats still count every computed point;
* the request pass builds no stage fingerprint, LRU layer or structural
  ``ResolveCache``, so it counts no structure hits or misses;
* repeats within one request still share resolution;
* a dispatcher without a store keeps its long-lived memo;
* the child inherits the parent's configuration and point deadline;
* Monte Carlo (shared evaluator) does the same work as before;
* the stage histogram and the ``/metrics`` store gauges count exactly
  what they observe.
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter

import pytest

from repro.analysis.uncertainty import monte_carlo
from repro.core.design import ChipDesign
from repro.core.model import CarbonModel
from repro.core.operational import Workload
from repro.engine import BatchEvaluator, EvalPoint
from repro.engine import evaluator as evaluator_module
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import FaultPlan, FaultRule
from repro.service.dispatcher import Dispatcher
from repro.service.schema import (
    BatchRequest,
    CompareRequest,
    EvaluateRequest,
    MonteCarloRequest,
    SweepRequest,
)
from repro.service.store import ResultStore
from repro.uncertainty import table2_factor_set

AV = Workload.autonomous_vehicle()
LOCATIONS = ("taiwan", "usa", "iceland", "germany", "japan")
STAGES = ("resolve", "embodied", "bandwidth", "operational")


def reference(name: str, gates: float = 17e9) -> ChipDesign:
    return ChipDesign.planar_2d(
        name, "7nm", gate_count=gates, throughput_tops=254.0
    )


def split(name: str, gates: float, integration: str = "hybrid_3d",
          n_dies: int = 2) -> ChipDesign:
    return ChipDesign.homogeneous_split(
        reference(name, gates), integration, n_dies=n_dies
    )


def point(design: ChipDesign, location: "str | None" = None,
          label: "str | None" = None) -> EvaluateRequest:
    return EvaluateRequest(
        design=design, workload=AV, fab_location=location, label=label
    )


def cold_batches(count: int, size: int = 6) -> "list[BatchRequest]":
    """Batches of new designs, each with an in-request repeat and one
    design priced at two fab locations (shared resolution)."""
    batches = []
    for b in range(count):
        designs = [
            split(f"cold{b}_{i}", 4e9 + (b * size + i) * 1e8,
                  ("hybrid_3d", "mcm", "m3d")[i % 3])
            for i in range(size)
        ]
        points = [point(design, "taiwan") for design in designs]
        points.append(point(designs[0], "taiwan"))   # in-request repeat
        points.append(point(designs[1], "usa"))      # same design, new CI
        batches.append(BatchRequest(points=tuple(points)))
    return batches


def memo_sizes(evaluator: BatchEvaluator) -> dict:
    """Entry count of every memo layer, the ResolveCache's included (a
    request pass has none)."""
    caches = evaluator._caches
    sizes = {
        name: len(getattr(caches, name)) for name in caches.__slots__
    }
    sizes.update({
        "ci": len(evaluator._ci_cache),
        "statics": len(evaluator._statics),
    })
    resolve = evaluator.resolve_cache
    if resolve is not None:
        sizes.update({
            "die_structure": len(resolve.die_structure),
            "floorplans": len(resolve.floorplans),
            "die_fast": len(resolve.die_fast),
        })
    return sizes


def all_empty(evaluator: BatchEvaluator) -> bool:
    return not any(memo_sizes(evaluator).values())


@pytest.fixture
def store_dispatcher(tmp_path):
    store = ResultStore(str(tmp_path / "store.sqlite3"))
    try:
        yield Dispatcher(store=store)
    finally:
        store.close()


# -- cold traffic --------------------------------------------------------------


class TestColdTraffic:
    def test_cold_batches_leave_the_long_lived_memo_empty(
        self, store_dispatcher
    ):
        for request in cold_batches(3):
            entries = store_dispatcher.batch(request)
            for entry, req in zip(entries, request.points):
                expected = CarbonModel(
                    req.design, fab_location=req.fab_location
                ).evaluate(AV).to_dict()
                assert entry["report"] == expected
        assert all_empty(store_dispatcher.evaluator), memo_sizes(
            store_dispatcher.evaluator
        )

    def test_counts_equal_one_fresh_evaluator_per_request(
        self, store_dispatcher
    ):
        batches = cold_batches(3)
        # Warm one batch into the store: its repeat is a store hit.
        store_dispatcher.batch(batches[0])
        before = dict(store_dispatcher.evaluator.stats.as_dict())
        reference_counts = dict.fromkeys(before, 0)
        for request in batches:
            store_dispatcher.batch(request)
        for request in batches[1:]:
            # The same work as each request's distinct points computed
            # through an evaluator that lives for that request only,
            # structure counts aside: the request pass has no such layer.
            fresh = BatchEvaluator()
            distinct = list(dict.fromkeys(request.points))
            fresh.evaluate_many([
                EvalPoint(design=p.design, fab_location=p.fab_location,
                          workload=p.workload)
                for p in distinct
            ])
            for field, value in fresh.stats.as_dict().items():
                if not field.startswith("structure_"):
                    reference_counts[field] += value
        after = store_dispatcher.evaluator.stats.as_dict()
        delta = {field: after[field] - before[field] for field in after}
        assert delta == reference_counts
        stats = store_dispatcher.evaluator.stats
        computed = store_dispatcher.stats.computed
        assert stats.points_evaluated == computed == 3 * 7
        # Every computed point resolved once, except the one design per
        # batch priced at a second location within the same request.
        assert (stats.resolve_misses, stats.resolve_hits) == (
            computed - 3, 3
        )
        assert (stats.structure_misses, stats.structure_hits) == (0, 0)

    def test_single_evaluate_is_scoped_too(self, store_dispatcher):
        request = point(split("single", 6e9))
        report, source = store_dispatcher.evaluate(request)
        assert source == "computed"
        assert report == CarbonModel(request.design).evaluate(AV).to_dict()
        assert store_dispatcher.evaluator.stats.resolve_misses == 1
        assert all_empty(store_dispatcher.evaluator)
        _, source = store_dispatcher.evaluate(request)
        assert source == "store"
        assert store_dispatcher.evaluator.stats.resolve_misses == 1


class EngineProbe:
    """Counts what the engine module builds: stage fingerprints, LRU
    layers, and the structural cache each ``resolve_design`` gets."""

    FINGERPRINTS = ("resolve_key", "embodied_key", "bandwidth_key",
                    "operational_key", "operational_prefix")

    def __init__(self, monkeypatch) -> None:
        self.calls: Counter = Counter()
        fingerprints = evaluator_module.fp
        probe = self

        class CountingFingerprints:
            def __getattr__(self, name):
                value = getattr(fingerprints, name)
                if name not in EngineProbe.FINGERPRINTS:
                    return value

                def counted(*args, **kwargs):
                    probe.calls[f"fp.{name}"] += 1
                    return value(*args, **kwargs)

                return counted

        lru, resolve = evaluator_module.LRUCache, evaluator_module.resolve_design

        def counting_lru(*args, **kwargs):
            self.calls["LRUCache"] += 1
            return lru(*args, **kwargs)

        def counting_resolve(design, params, cache=None):
            self.calls["resolve_design"] += 1
            if cache is not None:
                self.calls["resolve_design with a ResolveCache"] += 1
            return resolve(design, params, cache=cache)

        monkeypatch.setattr(evaluator_module, "fp", CountingFingerprints())
        monkeypatch.setattr(evaluator_module, "LRUCache", counting_lru)
        monkeypatch.setattr(evaluator_module, "resolve_design",
                            counting_resolve)


class TestRequestPassWork:
    """A store-backed request pass builds no memo machinery it cannot use."""

    def test_cold_batch_builds_no_fingerprint_and_no_resolve_cache(
        self, store_dispatcher, monkeypatch
    ):
        probe = EngineProbe(monkeypatch)
        batches = cold_batches(2)
        for request in batches:
            store_dispatcher.batch(request)
        _, entries = store_dispatcher.stream_batch(cold_batches(3)[2])
        list(entries)
        computed = store_dispatcher.stats.computed
        assert computed == 3 * 7
        assert probe.calls == {"resolve_design": computed - 3}
        resolve_cache = store_dispatcher.evaluator.resolve_cache
        assert (resolve_cache.hits, resolve_cache.misses) == (0, 0)

    def test_the_probe_sees_the_long_lived_memo(self, monkeypatch):
        # The same traffic without a store runs on the long-lived memo,
        # which builds every fingerprint and hands resolution its cache.
        dispatcher = Dispatcher()
        probe = EngineProbe(monkeypatch)
        dispatcher.batch(cold_batches(1)[0])
        assert probe.calls["fp.resolve_key"] > 0
        assert probe.calls["fp.embodied_key"] > 0
        assert probe.calls["resolve_design"] == 6
        assert probe.calls["resolve_design with a ResolveCache"] == 6

    def test_explicit_backend_points_share_one_resolve(
        self, store_dispatcher
    ):
        design = split("explicit", 6e9)
        request = BatchRequest(points=tuple(
            EvaluateRequest(design=design, workload=AV, fab_location=location,
                            backend="act")
            for location in ("taiwan", "usa")
        ))
        entries = store_dispatcher.batch(request)
        assert [entry["cache"] for entry in entries] == ["computed"] * 2
        stats = store_dispatcher.evaluator.stats
        assert (stats.resolve_misses, stats.resolve_hits) == (1, 1)
        assert stats.points_evaluated == 2
        assert all_empty(store_dispatcher.evaluator)


class TestWithinRequestSharing:
    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["enveloped", "streamed"])
    def test_sweep_over_five_locations_resolves_once(
        self, store_dispatcher, streamed
    ):
        request = SweepRequest(
            design=reference("sweep_ref"),
            integrations=("hybrid_3d",),
            fab_locations=LOCATIONS,
            workload=AV,
            stream=streamed,
        )
        if streamed:
            total, entries = store_dispatcher.stream_sweep(request)
            entries = list(entries)
            assert total == len(LOCATIONS)
        else:
            entries = store_dispatcher.sweep(request)
        assert [entry["cache"] for entry in entries] == (
            ["computed"] * len(LOCATIONS)
        )
        stats = store_dispatcher.evaluator.stats
        assert (stats.resolve_misses, stats.resolve_hits) == (
            1, len(LOCATIONS) - 1
        )
        assert stats.points_evaluated == len(LOCATIONS)
        assert all_empty(store_dispatcher.evaluator)

    def test_streamed_batch_folds_when_closed_early(self, store_dispatcher):
        request = cold_batches(1)[0]
        _, entries = store_dispatcher.stream_batch(request)
        next(entries)
        entries.close()
        stats = store_dispatcher.evaluator.stats
        assert stats.resolve_misses == store_dispatcher.stats.computed == 1


class TestSharedMemoKept:
    def test_dispatcher_without_store_serves_a_repeat_from_the_memo(self):
        dispatcher = Dispatcher()
        request = point(split("memo", 6e9))
        first, _ = dispatcher.evaluate(request)
        second, source = dispatcher.evaluate(request)
        assert source == "computed" and second == first
        stats = dispatcher.evaluator.stats
        assert (stats.resolve_misses, stats.resolve_hits) == (1, 1)
        assert (stats.embodied_misses, stats.embodied_hits) == (1, 1)
        assert not all_empty(dispatcher.evaluator)

    def test_compare_and_montecarlo_stay_on_the_shared_evaluator(
        self, store_dispatcher
    ):
        design = split("shared", 6e9)
        store_dispatcher.compare(CompareRequest(
            design=design, workload=AV, fab_location=None,
            backends=("repro3d", "act"), draws=0, seed=1,
        ))
        assert memo_sizes(store_dispatcher.evaluator)["resolved"] == 1
        store_dispatcher.montecarlo(MonteCarloRequest(
            design=split("shared_mc", 7e9), workload=AV,
            fab_location=None, samples=8, seed=3,
        ))
        assert memo_sizes(store_dispatcher.evaluator)["resolved"] == 2


# -- the scoped evaluator ------------------------------------------------------


class TestScopedEvaluator:
    def test_child_inherits_configuration_with_empty_caches(self):
        registry = MetricsRegistry()
        plan = FaultPlan(rules=(
            FaultRule("engine.point", action="error", after=1000),
        ))
        parent = BatchEvaluator(
            fab_location="usa", cache_limit=77, faults=plan,
            point_timeout_s=2.0, metrics=registry,
        )
        parent.report(split("parent", 6e9))
        with parent.scoped() as child:
            assert child is not parent
            for attr in ("params", "faults", "metrics"):
                assert getattr(child, attr) is getattr(parent, attr), attr
            for attr in ("fab_location", "efficiency_plugin", "cache_limit",
                         "point_timeout_s", "eviction_policy"):
                assert getattr(child, attr) == getattr(parent, attr), attr
            assert child.resolve_cache is None
            assert all_empty(child)
            assert child.stats.as_dict() == dict.fromkeys(
                child.stats.as_dict(), 0
            )

    def test_counts_fold_even_when_the_request_fails(self):
        # Two packagings of one die: a long-lived evaluator's second
        # resolve reuses the die's structure (a structure hit); the
        # request pass has no structure layer.
        designs = [
            ChipDesign.planar_2d("fails", "7nm", gate_count=6e9,
                                 package_class=package)
            for package in ("fcbga", "fowlp")
        ]
        parent = BatchEvaluator()
        with pytest.raises(RuntimeError):
            with parent.scoped() as child:
                for design in designs:
                    child.report(design, workload=AV)
                raise RuntimeError("request failed after computing")
        fresh = BatchEvaluator()
        for design in designs:
            fresh.report(design, workload=AV)
        expected = fresh.stats.as_dict()
        assert (expected.pop("structure_misses"),
                expected.pop("structure_hits")) == (1, 1)
        assert parent.stats.as_dict() == dict(
            expected, structure_misses=0, structure_hits=0
        )
        assert parent.stats.resolve_misses == 2
        assert (parent.stats.structure_misses,
                parent.stats.structure_hits) == (0, 0)
        assert all_empty(parent)


# -- Monte Carlo keeps its work ------------------------------------------------


class TestMonteCarloWorkCounts:
    """The work-count twin of the 500-draw Monte-Carlo bench: the draws
    run on the shared evaluator, so their counts must not move."""

    DESIGN = split("bench_ref", 17e9)

    def check(self, stats) -> None:
        assert stats.resolve_misses == 501
        assert (stats.structure_misses, stats.structure_hits) == (2, 1000)
        assert (stats.operational_misses, stats.operational_hits) == (1, 500)

    def test_library_monte_carlo(self):
        evaluator = BatchEvaluator()
        monte_carlo(
            self.DESIGN,
            factors=list(
                table2_factor_set(node="7nm", integration="hybrid_3d")
            ),
            workload=AV, samples=500, seed=20240623, evaluator=evaluator,
        )
        self.check(evaluator.stats)

    def test_served_monte_carlo(self, store_dispatcher):
        store_dispatcher.montecarlo(MonteCarloRequest(
            design=self.DESIGN, workload=AV, fab_location=None,
            samples=500, seed=20240623,
        ))
        self.check(store_dispatcher.evaluator.stats)


# -- metrics -------------------------------------------------------------------


def stage_counts(registry: MetricsRegistry) -> dict:
    hist = registry.get("carbon3d_stage_duration_seconds")
    return {
        stage: hist.labels(stage=stage, backend="repro3d").count
        for stage in STAGES
    }


class TestStageHistogram:
    def test_each_stage_count_equals_its_misses(self):
        registry = MetricsRegistry()
        evaluator = BatchEvaluator(metrics=registry)
        designs = [split(f"stage{i}", 4e9 + i * 1e8) for i in range(3)]
        evaluator.evaluate_many([
            EvalPoint(design=design, fab_location=location, workload=AV)
            for design in designs for location in ("taiwan", "usa")
        ] * 2)
        stats = evaluator.stats
        assert stage_counts(registry) == {
            stage: getattr(stats, f"{stage}_misses") for stage in STAGES
        }
        text = registry.render_prometheus()
        for stage in STAGES:
            assert (
                f'carbon3d_stage_duration_seconds_count{{backend="repro3d",'
                f'stage="{stage}"}} {getattr(stats, f"{stage}_misses")}'
            ) in text

    def test_scoped_points_land_in_the_same_series(self, store_dispatcher):
        for request in cold_batches(2):
            store_dispatcher.batch(request)
        stats = store_dispatcher.evaluator.stats
        assert stage_counts(store_dispatcher.metrics) == {
            stage: getattr(stats, f"{stage}_misses") for stage in STAGES
        }


class SQLTrace:
    def __init__(self, conn: sqlite3.Connection) -> None:
        self.statements: "list[str]" = []
        self.conn = conn
        conn.set_trace_callback(self.statements.append)

    def stop(self) -> None:
        self.conn.set_trace_callback(None)

    def count(self, prefix: str) -> int:
        return sum(s.startswith(prefix) for s in self.statements)


STORE_GAUGES = ("entries", "hits", "misses", "evictions", "quarantined")


def gauge_values(text: str) -> dict:
    values = {}
    for field in STORE_GAUGES:
        match = re.search(rf"^carbon3d_store_{field} (\S+)$", text, re.M)
        assert match, f"carbon3d_store_{field} missing"
        values[field] = float(match.group(1))
    return values


class TestMetricsScrape:
    def test_one_scrape_reads_the_store_once(self, store_dispatcher):
        for request in cold_batches(2):
            store_dispatcher.batch(request)
        store_dispatcher.batch(cold_batches(1)[0])  # store hits
        store = store_dispatcher.store
        expected = {
            field: float(store.stats()[field]) for field in STORE_GAUGES
        }
        assert expected["entries"] > 0 and expected["hits"] > 0
        trace = SQLTrace(store._conn)
        try:
            text = store_dispatcher.metrics.render_prometheus()
        finally:
            trace.stop()
        assert trace.count("DELETE FROM claims") == 1
        assert trace.count("COMMIT") <= 1
        assert trace.count("SELECT COUNT(*) FROM results") == 1
        assert gauge_values(text) == expected

    def test_storeless_dispatcher_reports_zero(self):
        text = Dispatcher().metrics.render_prometheus()
        assert gauge_values(text) == dict.fromkeys(STORE_GAUGES, 0.0)
