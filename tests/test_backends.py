"""Backend-protocol tests: registry, pipeline runs, and bit-exact parity.

The refactor's contract: every registered carbon backend produces
*bit-identical* results through the protocol versus its pre-refactor
direct module API, and the batch engine's memoized backend path matches
both. The Sec. 4 comparison study rides on that guarantee, so it is
pinned here exactly (``==`` on floats, never ``approx``).
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    act_estimate,
    act_plus_estimate,
    first_order_estimate,
    lca_estimate,
)
from repro.config.parameters import ParameterSet
from repro.core.design import ChipDesign
from repro.core.model import CarbonModel
from repro.core.resolve import resolve_design
from repro.engine import BatchEvaluator, EvalPoint
from repro.errors import BackendError
from repro.pipeline import (
    BackendReport,
    EvalContext,
    LcaBackend,
    PipelineRun,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.studies.validation import (
    compare_backends,
    epyc_7452_design,
    epyc_validation,
    lakefield_design,
)

PARAMS = ParameterSet.default()
CI = PARAMS.grid("taiwan").kg_co2_per_kwh
BUILTIN = ("repro3d", "act", "act_plus", "lca", "first_order")


@pytest.fixture(params=["2d", "hybrid_3d", "mcm", "micro_3d"])
def any_design(request, orin_2d, lakefield_like):
    if request.param == "2d":
        return orin_2d
    if request.param == "micro_3d":
        return lakefield_like
    return ChipDesign.homogeneous_split(orin_2d, request.param)


class TestRegistry:
    def test_builtins_registered(self):
        assert backend_names() == BUILTIN

    def test_unknown_name_raises_typed_error(self):
        with pytest.raises(BackendError) as excinfo:
            get_backend("nope")
        assert excinfo.value.backend == "nope"
        assert excinfo.value.known == BUILTIN
        assert excinfo.value.field == "backend"

    def test_duplicate_registration_needs_replace(self):
        backend = get_backend("act")
        with pytest.raises(BackendError):
            register_backend(backend)
        register_backend(backend, replace=True)  # no-op override is fine

    def test_resolve_accepts_name_instance_none(self):
        act = get_backend("act")
        assert resolve_backend("act") is act
        assert resolve_backend(act) is act
        assert resolve_backend(None).name == "repro3d"
        with pytest.raises(BackendError):
            resolve_backend(42)


class TestPipelineIntrospection:
    def test_stage_names(self):
        assert get_backend("repro3d").stage_names() == (
            "resolve", "embodied", "bandwidth", "operational"
        )
        for name in ("act", "act_plus", "lca", "first_order"):
            stages = get_backend(name).stage_names()
            assert stages[0] == "resolve" and len(stages) == 2

    def test_stage_fns_are_module_level(self):
        """Every stage fn must be picklable by reference."""
        import pickle

        for name in backend_names():
            for stage in get_backend(name).stages:
                assert pickle.loads(pickle.dumps(stage.fn)) is stage.fn

    def test_run_records_keys_and_outputs(self, orin_2d, av_workload):
        backend = get_backend("repro3d")
        ctx = EvalContext.build(orin_2d, PARAMS, "taiwan", av_workload)
        run = PipelineRun(backend, ctx)
        resolved = run.output("resolve")
        assert resolved.design is orin_2d
        assert run.key("embodied") is not None
        report = run.result()
        assert report.total_kg == run.summary().total_kg

    def test_memo_shares_stages_across_runs(self, orin_2d):
        backend = get_backend("repro3d")
        memo: dict = {}
        ctx = EvalContext.build(orin_2d, PARAMS, "taiwan", None)
        first = PipelineRun(backend, ctx, memo=memo).output("resolve")
        second = PipelineRun(backend, ctx, memo=memo).output("resolve")
        assert first is second


class TestProtocolParity:
    """Backend-protocol results == pre-refactor direct APIs, bit for bit."""

    def test_repro3d_matches_carbon_model(self, any_design, av_workload):
        direct = CarbonModel(any_design, PARAMS, "taiwan").evaluate(av_workload)
        summary = get_backend("repro3d").evaluate(
            any_design, PARAMS, "taiwan", av_workload
        )
        assert summary.total_kg == direct.total_kg
        assert summary.embodied_kg == direct.embodied_kg
        assert summary.operational_kg == direct.operational.total_kg
        assert summary.breakdown_dict() == direct.embodied.breakdown()
        assert summary.valid == direct.valid
        # repr-compare: an idle die's efficiency is NaN, and NaN != NaN
        # would fail dataclass equality on bit-identical reports.
        assert repr(summary.detail) == repr(direct)

    def test_act_matches_direct(self, any_design):
        resolved = resolve_design(any_design, PARAMS)
        dies = [(d.name, d.node.name, d.area_mm2) for d in resolved.dies]
        direct = act_estimate(dies, CI, PARAMS)
        summary = get_backend("act").evaluate(any_design, PARAMS, "taiwan")
        assert summary.total_kg == direct.total_kg
        assert summary.breakdown_dict() == direct.breakdown()
        assert summary.detail == direct

    def test_act_plus_matches_direct(self, any_design):
        direct = act_plus_estimate(any_design, CI, PARAMS)
        summary = get_backend("act_plus").evaluate(any_design, PARAMS, "taiwan")
        assert summary.total_kg == direct.total_kg
        assert summary.breakdown_dict() == direct.breakdown()
        assert summary.detail == direct

    def test_lca_matches_direct(self, any_design):
        resolved = resolve_design(any_design, PARAMS)
        dies = [(d.node.name, d.area_mm2) for d in resolved.dies]
        direct = lca_estimate(
            dies, PARAMS, monolithic=len(any_design.dies) > 1
        )
        summary = get_backend("lca").evaluate(any_design, PARAMS, "taiwan")
        assert summary.total_kg == direct.total_kg
        assert summary.detail == direct

    def test_first_order_matches_direct(self, any_design):
        resolved = resolve_design(any_design, PARAMS)
        direct = first_order_estimate(resolved.total_die_area_mm2)
        summary = get_backend("first_order").evaluate(
            any_design, PARAMS, "taiwan"
        )
        assert summary.total_kg == direct.total_kg
        assert summary.detail == direct

    def test_lca_monolithic_pinning(self, hybrid_stack):
        resolved = resolve_design(hybrid_stack, PARAMS)
        dies = [(d.node.name, d.area_mm2) for d in resolved.dies]
        per_die = LcaBackend(monolithic=False).evaluate(hybrid_stack, PARAMS)
        assert per_die.total_kg == lca_estimate(
            dies, PARAMS, monolithic=False
        ).total_kg
        auto = get_backend("lca").evaluate(hybrid_stack, PARAMS)
        assert auto.total_kg != per_die.total_kg

    def test_act_plus_shared_resolution_changes_nothing(self, emib_assembly):
        resolved = resolve_design(emib_assembly, PARAMS)
        assert act_plus_estimate(
            emib_assembly, CI, PARAMS, resolved=resolved
        ) == act_plus_estimate(emib_assembly, CI, PARAMS)


class TestEngineEquivalence:
    """Engine-memoized backend path == direct backend path, bit for bit."""

    @pytest.mark.parametrize("name", BUILTIN)
    def test_engine_matches_direct_per_backend(
        self, name, any_design, av_workload
    ):
        evaluator = BatchEvaluator(params=PARAMS, fab_location="taiwan")
        direct = get_backend(name).evaluate(
            any_design, PARAMS, "taiwan", av_workload
        )
        first = evaluator.backend_report(
            any_design, name, workload=av_workload
        )
        again = evaluator.backend_report(  # memoized second pass
            any_design, name, workload=av_workload
        )
        for engine_report in (first, again):
            assert engine_report.total_kg == direct.total_kg
            assert engine_report.breakdown == direct.breakdown
            assert engine_report.to_dict() == direct.to_dict()

    def test_backend_total_kg_matches_report(self, hybrid_stack, av_workload):
        evaluator = BatchEvaluator(params=PARAMS)
        for name in BUILTIN:
            assert evaluator.backend_total_kg(
                hybrid_stack, name, workload=av_workload
            ) == evaluator.backend_report(
                hybrid_stack, name, workload=av_workload
            ).total_kg

    def test_resolution_shared_across_backends(self, hybrid_stack):
        evaluator = BatchEvaluator(params=PARAMS)
        for name in BUILTIN:
            evaluator.backend_report(hybrid_stack, name)
        # One physical resolve; every other backend hit the shared memo.
        assert evaluator.stats.resolve_misses == 1
        assert evaluator.stats.resolve_hits == len(BUILTIN) - 1

    def test_evaluate_point_types(self, hybrid_stack, av_workload):
        evaluator = BatchEvaluator(params=PARAMS)
        classic = evaluator.evaluate(
            EvalPoint(design=hybrid_stack, workload=av_workload)
        )
        uniform = evaluator.evaluate(
            EvalPoint(
                design=hybrid_stack, workload=av_workload, backend="repro3d"
            )
        )
        assert type(classic).__name__ == "LifecycleReport"
        assert isinstance(uniform, BackendReport)
        assert uniform.total_kg == classic.total_kg

    def test_unknown_backend_point_raises(self, hybrid_stack):
        evaluator = BatchEvaluator(params=PARAMS)
        with pytest.raises(BackendError):
            evaluator.evaluate(EvalPoint(design=hybrid_stack, backend="nope"))


class TestCompareBackends:
    def test_reproduces_sec4_epyc_numbers(self):
        """compare_backends == the Fig. 4(a) study's own numbers."""
        comparison = compare_backends(epyc_7452_design())
        reports = {entry.backend: entry for entry in comparison.reports}
        reference = epyc_validation()
        assert reports["lca"].total_kg == reference.lca.total_kg
        assert reports["act_plus"].total_kg == reference.act_plus.total_kg
        assert reports["repro3d"].embodied_kg == reference.carbon_3d.total_kg

    def test_one_batched_engine_call_shares_resolution(self):
        evaluator = BatchEvaluator(params=PARAMS)
        compare_backends(lakefield_design(), evaluator=evaluator)
        assert evaluator.stats.resolve_misses == 1

    def test_reports_and_table(self, hybrid_stack, av_workload):
        comparison = compare_backends(hybrid_stack, workload=av_workload)
        reports = comparison.reports
        assert [entry.backend for entry in reports] == [
            "repro3d", "act", "act_plus", "lca", "first_order"
        ]
        table = comparison.format_table()
        for label in ("3D-Carbon", "ACT", "ACT+", "LCA", "First-order"):
            assert label in table
        assert "—" in table
        # Only repro3d models the use phase.
        assert reports[0].operational_kg is not None
        assert all(entry.operational_kg is None for entry in reports[1:])

    def test_unknown_backend_rejected_before_evaluation(self, orin_2d):
        with pytest.raises(BackendError):
            compare_backends(orin_2d, backends=["repro3d", "nope"])

    def test_backend_subset_and_order(self, orin_2d):
        comparison = compare_backends(
            orin_2d, backends=["lca", "first_order"]
        )
        assert [r.backend for r in comparison.reports] \
            == ["lca", "first_order"]

    def test_draws_attach_per_backend_bands(self, hybrid_stack):
        from repro.analysis.uncertainty import monte_carlo

        evaluator = BatchEvaluator(params=PARAMS)
        comparison = compare_backends(
            hybrid_stack, backends=["repro3d", "act"],
            evaluator=evaluator, draws=15, seed=3,
        )
        assert comparison.bands is not None
        band = comparison.band("act")
        assert band.n == 15
        # The band is the backend's own monte_carlo study, verbatim.
        reference = monte_carlo(
            hybrid_stack, samples=15, seed=3, backend="act",
            evaluator=evaluator,
        )
        assert band.samples_kg == reference.samples_kg
        assert comparison.band("repro3d").samples_kg != band.samples_kg
        table = comparison.format_table()
        assert "uncertainty (each backend draws its own factor set)" in table

    def test_without_draws_bands_absent(self, orin_2d):
        comparison = compare_backends(orin_2d, backends=["lca"])
        assert comparison.bands is None
        with pytest.raises(KeyError):
            comparison.band("lca")


class TestBackendReportShape:
    def test_to_dict_shape(self, hybrid_stack, av_workload):
        data = get_backend("repro3d").evaluate(
            hybrid_stack, PARAMS, "taiwan", av_workload
        ).to_dict()
        assert data["backend"] == "repro3d"
        assert data["total_kg"] == pytest.approx(
            data["embodied_kg"] + data["operational_kg"]
        )
        baseline = get_backend("act").evaluate(
            hybrid_stack, PARAMS, "taiwan", av_workload
        ).to_dict()
        assert "operational_kg" not in baseline
        assert baseline["valid"] is True
        assert sum(baseline["embodied_breakdown_kg"].values()) \
            == pytest.approx(baseline["total_kg"])


class TestPluginEvaluatorSemantics:
    """backend=None is the engine's own path (plugin included); an
    explicit backend stays bit-identical to its direct evaluate()."""

    class _DoublePlugin:
        def efficiency_tops_per_w(self, rdie):
            return 2.0

    def test_explicit_repro3d_ignores_evaluator_plugin(
        self, hybrid_stack, av_workload
    ):
        evaluator = BatchEvaluator(
            params=PARAMS, efficiency_plugin=self._DoublePlugin()
        )
        explicit = evaluator.backend_report(
            hybrid_stack, "repro3d", workload=av_workload
        ).total_kg
        direct = get_backend("repro3d").evaluate(
            hybrid_stack, PARAMS, "taiwan", av_workload
        ).total_kg
        assert explicit == direct

    def test_backend_none_keeps_engine_plugin_path(
        self, hybrid_stack, av_workload
    ):
        evaluator = BatchEvaluator(
            params=PARAMS, efficiency_plugin=self._DoublePlugin()
        )
        own = evaluator.backend_report(
            hybrid_stack, None, workload=av_workload
        ).total_kg
        plain = evaluator.report(hybrid_stack, workload=av_workload).total_kg
        assert own == plain
        # The plugin genuinely changes the number, so the two semantics
        # are observably different on this evaluator.
        assert plain != get_backend("repro3d").evaluate(
            hybrid_stack, PARAMS, "taiwan", av_workload
        ).total_kg
