"""The declarative uncertainty layer: factor sets + perturbation plans.

Covers the subsystem the per-backend Monte-Carlo refactor introduced:
declarative factor specs (distributions, correlation groups, model-scoped
targets), the vectorized draw paths, each backend's own factor set (and
its distinct fingerprint), derived backends for model-scoped factors,
and the Monte-Carlo loop's chunking, which must not move a draw's value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.uncertainty import _monte_carlo_scalar, monte_carlo
from repro.baselines.first_order import first_order_estimate
from repro.baselines.lca import lca_estimate
from repro.config.integration import TABLE1_INTEGRATIONS
from repro.core.design import ChipDesign
from repro.engine import BatchEvaluator
from repro.engine.montecarlo import DEFAULT_CHUNK_SIZE, monte_carlo_totals
from repro.errors import BackendError, ParameterError
from repro.pipeline.registry import backend_names, get_backend
from repro.uncertainty import (
    FactorSet,
    FactorSpec,
    FactorTarget,
    PerturbationPlan,
    act_factor_set,
    draw_multipliers,
    first_order_factor_set,
    lca_factor_set,
    table2_factor_set,
)


def _spec(name="f", low=0.5, high=2.0, **kwargs) -> FactorSpec:
    target = kwargs.pop(
        "target", FactorTarget("node", ("7nm",), "epa_kwh_per_cm2")
    )
    return FactorSpec(name, low, high, target, **kwargs)


class TestFactorSpecValidation:
    def test_unknown_distribution_rejected(self):
        with pytest.raises(ParameterError, match="distribution"):
            _spec(distribution="beta")

    def test_triangular_must_straddle_one(self):
        with pytest.raises(ParameterError, match="straddle"):
            _spec(low=1.1, high=2.0)

    def test_uniform_only_needs_ordered_bounds(self):
        spec = _spec(low=1.1, high=2.0, distribution="uniform")
        assert spec.distribution == "uniform"
        with pytest.raises(ParameterError, match="low < high"):
            _spec(low=2.0, high=1.1, distribution="uniform")

    def test_model_target_has_no_params_application(self, params):
        spec = _spec(target=FactorTarget("model", ("lca",), "cpa_scale"))
        with pytest.raises(ParameterError, match="model-scoped"):
            spec.apply(params, 1.5)

    def test_target_read_scale_apply_roundtrip(self, params):
        spec = _spec()
        base = spec.target.read(params)
        perturbed = spec.apply(params, 1.25)
        assert spec.target.read(perturbed) == base * 1.25

    def test_clamp_to_one(self, params):
        target = FactorTarget(
            "integration", ("hybrid_3d",), "io_area_ratio", clamp_to_one=True
        )
        assert target.scale(0.9, 2.0) == 1.0
        assert target.scale(0.2, 2.0) == pytest.approx(0.4)


class TestFactorSetIdentity:
    def test_digest_is_stable_hex(self):
        digest = table2_factor_set().digest()
        assert digest == table2_factor_set().digest()
        assert len(digest) == 64
        int(digest, 16)

    def test_different_sets_different_digests(self):
        digests = {
            table2_factor_set().digest(),
            act_factor_set(("7nm",)).digest(),
            lca_factor_set().digest(),
            first_order_factor_set().digest(),
        }
        assert len(digests) == 4

    def test_range_change_changes_digest(self):
        loose = FactorSet("custom", (_spec(high=2.0),))
        tight = FactorSet("custom", (_spec(high=1.5),))
        assert loose.digest() != tight.digest()

    def test_coerce_wraps_lists_and_passes_sets_through(self):
        factor_set = table2_factor_set()
        assert FactorSet.coerce(factor_set) is factor_set
        wrapped = FactorSet.coerce(list(factor_set))
        assert wrapped.name == "custom"
        assert wrapped.fingerprint()[2] == factor_set.fingerprint()[2]


class TestBackendFactorSets:
    def test_every_backend_declares_a_set(self, hybrid_stack, params):
        for name in backend_names():
            factor_set = get_backend(name).factor_set(hybrid_stack, params)
            assert len(factor_set) > 0

    def test_backend_sets_have_distinct_digests(self, hybrid_stack, params):
        digests = {}
        for name in backend_names():
            digests.setdefault(
                get_backend(name).factor_set(hybrid_stack, params).digest(),
                name,
            )
        # ACT and ACT+ intentionally share one set (same parametric
        # uncertainty); everyone else declares their own.
        assert len(digests) == len(list(backend_names())) - 1

    def test_repro3d_set_is_table2(self, hybrid_stack, params):
        theirs = get_backend("repro3d").factor_set(hybrid_stack, params)
        ours = table2_factor_set(
            node=hybrid_stack.dies[0].node,
            integration=hybrid_stack.integration,
        )
        assert theirs.digest() == ours.digest()

    def test_act_set_covers_every_die_node(self, params):
        design = ChipDesign.planar_2d("epyc_ish", "14nm", area_mm2=400.0)
        names = [f.name for f in get_backend("act").factor_set(design, params)]
        assert any("14nm" in name for name in names)
        assert not any("7nm" in name for name in names)

    def test_table2_inclusion_follows_study_params(self, params):
        """Factor inclusion reads the study's own parameter set, not the
        defaults — an overridden integration spec changes the factors."""
        default_names = [f.name for f in table2_factor_set("7nm", "2d")]
        assert not any("io_area_ratio" in name for name in default_names)
        custom = params.with_integration_override("2d", io_area_ratio=0.2)
        custom_names = [
            f.name
            for f in table2_factor_set("7nm", "2d", params=custom)
        ]
        assert any("io_area_ratio" in name for name in custom_names)

    def test_repro3d_set_uses_the_designs_package_class(
        self, lakefield_like, params
    ):
        names = [
            f.name
            for f in get_backend("repro3d").factor_set(lakefield_like, params)
        ]
        assert "packaging_cpa[pop_mobile]" in names
        assert "packaging_cpa[fcbga]" not in names


class TestDraws:
    def test_plain_triangular_matches_legacy_broadcast(self):
        factors = list(table2_factor_set())
        drawn = draw_multipliers(factors, 40, seed=7)
        rng = np.random.default_rng(7)
        lows = np.array([f.low for f in factors])
        highs = np.array([f.high for f in factors])
        shape = (40, len(factors))
        legacy = rng.triangular(
            np.broadcast_to(lows, shape), 1.0, np.broadcast_to(highs, shape)
        )
        assert np.array_equal(drawn, legacy)

    def test_seed_reproducible(self):
        factors = act_factor_set(("7nm", "14nm"))
        assert np.array_equal(
            draw_multipliers(factors, 30, seed=3),
            draw_multipliers(factors, 30, seed=3),
        )
        assert not np.array_equal(
            draw_multipliers(factors, 30, seed=3),
            draw_multipliers(factors, 30, seed=4),
        )

    def test_correlated_factors_move_together(self):
        factors = act_factor_set(("7nm", "14nm", "28nm"))
        drawn = draw_multipliers(factors, 200, seed=11)
        by_name = {
            factor.name: drawn[:, index]
            for index, factor in enumerate(factors)
        }
        # Same group + same bounds/distribution → identical columns.
        assert np.array_equal(
            by_name["fab_energy_epa[7nm]"], by_name["fab_energy_epa[14nm]"]
        )
        assert np.array_equal(
            by_name["fab_gas_gpa[7nm]"], by_name["fab_gas_gpa[28nm]"]
        )
        # Different groups, and ungrouped factors, draw independently.
        assert not np.array_equal(
            by_name["fab_energy_epa[7nm]"], by_name["fab_gas_gpa[7nm]"]
        )
        assert not np.array_equal(
            by_name["raw_material_mpa[7nm]"], by_name["raw_material_mpa[14nm]"]
        )

    def test_correlated_group_shares_quantile_not_value(self):
        wide = _spec("wide", 0.5, 2.0, group="g")
        narrow = _spec("narrow", 0.9, 1.1, group="g")
        drawn = draw_multipliers([wide, narrow], 300, seed=5)
        # Perfect rank correlation: sorting one column sorts the other.
        assert np.array_equal(
            np.argsort(drawn[:, 0], kind="stable"),
            np.argsort(drawn[:, 1], kind="stable"),
        )
        assert drawn[:, 1].min() >= 0.9
        assert drawn[:, 1].max() <= 1.1

    def test_pinned_triangular_factor_in_mixed_set(self):
        """low == high == 1.0 passes validation; the inverse-CDF path
        must yield a constant column, not divide by the zero span."""
        pinned = _spec("pinned", 1.0, 1.0)
        uniform = _spec("u", 0.8, 1.2, distribution="uniform")
        drawn = draw_multipliers([pinned, uniform], 50, seed=1)
        assert np.all(drawn[:, 0] == 1.0)
        assert drawn[:, 1].min() >= 0.8

    def test_uniform_bounds_and_shape(self):
        spec = _spec(low=1.2, high=1.8, distribution="uniform")
        drawn = draw_multipliers([spec], 500, seed=9)[:, 0]
        assert drawn.min() >= 1.2
        assert drawn.max() <= 1.8
        assert abs(drawn.mean() - 1.5) < 0.02

    def test_lognormal_median_and_quantiles(self):
        spec = _spec(low=0.5, high=2.0, distribution="lognormal")
        drawn = draw_multipliers([spec], 4000, seed=13)[:, 0]
        assert abs(np.median(drawn) - 1.0) < 0.03
        # ~5% of draws beyond each quantile bound, by construction.
        assert 0.02 < np.mean(drawn < 0.5) < 0.08
        assert 0.02 < np.mean(drawn > 2.0) < 0.08


class TestPerturbationPlan:
    @pytest.mark.parametrize("integration", TABLE1_INTEGRATIONS)
    @pytest.mark.parametrize("node", ["7nm", "28nm"])
    def test_compiled_rows_match_sequential_chain(
        self, params, integration, node
    ):
        """The grouped fast path applies a Table 2 row exactly as the
        per-factor ``apply`` chain does, at both multiplier extremes."""
        factors = table2_factor_set(node, integration)
        plan = PerturbationPlan(factors, params)
        assert plan._plan is not None
        for row in ([f.low for f in factors], [f.high for f in factors]):
            fast = plan.perturbed(row)
            slow = plan.sequential(row)
            for factor, multiplier in zip(factors, row):
                target = factor.target
                assert target.read(fast) == target.read(slow), factor.name
                assert target.read(fast) == target.scale(
                    target.read(params), multiplier
                ), factor.name
                assert target.record(fast) == target.record(slow)

    def test_model_factors_split_from_params_factors(self, params):
        plan = PerturbationPlan(lca_factor_set(), params)
        assert plan.has_model_factors
        row = [1.3, 1.7]
        assert plan.model_multipliers(row) == {"cpa_scale": 1.3}
        perturbed = plan.perturbed(row)
        assert (
            perturbed.node("14nm").defect_density_per_cm2
            == params.node("14nm").defect_density_per_cm2 * 1.7
        )

    def test_plan_without_model_factors_returns_none(self, params):
        plan = PerturbationPlan(table2_factor_set(), params)
        assert not plan.has_model_factors
        assert plan.model_multipliers([1.0] * len(plan.factors)) is None

    def test_duplicate_model_targets_rejected(self, params):
        """Two factors on one backend constant would silently collapse
        last-wins in the overrides dict — refuse at compile time."""
        duplicated = FactorSet("dup", (
            _spec("a", target=FactorTarget("model", ("lca",), "cpa_scale")),
            _spec("b", target=FactorTarget("model", ("lca",), "cpa_scale")),
        ))
        with pytest.raises(ParameterError, match="cpa_scale"):
            PerturbationPlan(duplicated, params)

    def test_model_only_set_keeps_base_params_identity(self, params):
        plan = PerturbationPlan(first_order_factor_set(), params)
        assert plan.perturbed([1.3, 0.8]) is params

    def test_lognormal_tail_row_falls_back_to_sequential(self, params):
        spec = _spec(low=0.5, high=2.0, distribution="lognormal")
        plan = PerturbationPlan([spec], params)
        base = params.node("7nm").epa_kwh_per_cm2
        # 2.4 is beyond the validated [low, high] quantile range.
        perturbed = plan.perturbed([2.4])
        assert perturbed.node("7nm").epa_kwh_per_cm2 == base * 2.4


class TestModelScopedBackends:
    def test_base_backend_rejects_model_multipliers(self):
        with pytest.raises(BackendError, match="no model-constant"):
            get_backend("repro3d").with_model_multipliers({"nope": 1.1})

    def test_unknown_constant_fails_loudly(self):
        with pytest.raises(BackendError, match="typo"):
            get_backend("lca").with_model_multipliers({"typo": 1.1})
        with pytest.raises(BackendError, match="typo"):
            get_backend("first_order").with_model_multipliers({"typo": 1.1})

    def test_empty_multipliers_return_self(self):
        backend = get_backend("lca")
        assert backend.with_model_multipliers({}) is backend

    def test_lca_cpa_scale_scales_the_database(self, small_2d, params):
        evaluator = BatchEvaluator(params=params)
        derived = get_backend("lca").with_model_multipliers(
            {"cpa_scale": 1.5}
        )
        scaled = evaluator.backend_total_kg(small_2d, derived, params=params)
        direct = lca_estimate(
            [("14nm", 100.0)], params, monolithic=True, cpa_scale=1.5
        )
        assert scaled == direct.total_kg

    def test_first_order_constants_scale(self, small_2d, params):
        evaluator = BatchEvaluator(params=params)
        derived = get_backend("first_order").with_model_multipliers(
            {"kg_per_cm2": 2.0, "packaging_kg": 0.5}
        )
        scaled = evaluator.backend_total_kg(small_2d, derived, params=params)
        from repro.baselines.first_order import (
            FIRST_ORDER_KG_PER_CM2,
            FIRST_ORDER_PACKAGING_KG,
        )

        direct = first_order_estimate(
            100.0,
            kg_per_cm2=FIRST_ORDER_KG_PER_CM2 * 2.0,
            packaging_kg=FIRST_ORDER_PACKAGING_KG * 0.5,
        )
        assert scaled == direct.total_kg

    def test_lca_cpa_scale_validation(self, params):
        with pytest.raises(ParameterError, match="cpa_scale"):
            lca_estimate([("14nm", 100.0)], params, cpa_scale=0.0)

    def test_lca_memo_sees_yield_node_perturbation(self, params):
        """LCA prices yield at 14 nm whatever the design's nodes — the
        memo key must pin that record, or a perturbed defect density on
        a non-14nm design serves the stale base estimate."""
        from repro.analysis.sensitivity import tornado

        design = ChipDesign.planar_2d("seven", "7nm", area_mm2=100.0)
        evaluator = BatchEvaluator(params=params)
        base = evaluator.backend_total_kg(design, "lca", params=params)
        doubled = params.with_node_override(
            "14nm",
            defect_density_per_cm2=(
                params.node("14nm").defect_density_per_cm2 * 2.0
            ),
        )
        perturbed = evaluator.backend_total_kg(design, "lca", params=doubled)
        fresh = BatchEvaluator(params=doubled).backend_total_kg(
            design, "lca", params=doubled
        )
        assert perturbed == fresh
        assert perturbed != base
        # And through the default tornado path the factor set enables:
        swings = {
            entry.factor: entry.swing_kg
            for entry in tornado(design, backend="lca", params=params)
        }
        assert swings["defect_density[14nm]"] != 0.0


class TestPerBackendMonteCarlo:
    def test_each_backend_produces_a_band(self, hybrid_stack):
        evaluator = BatchEvaluator()
        results = {
            name: monte_carlo(
                hybrid_stack, samples=20, seed=2, evaluator=evaluator,
                backend=name,
            )
            for name in backend_names()
        }
        for name, result in results.items():
            assert result.n == 20
            assert result.std_kg > 0.0, name
        samples = {r.samples_kg for r in results.values()}
        # Every model draws its own distribution; ACT and ACT+ share one
        # factor set and coincide exactly on a 3D design (the 2.5D cost
        # factor never engages), so they may collapse to one entry.
        assert len(samples) >= len(results) - 1
        assert results["repro3d"].samples_kg != results["act"].samples_kg

    def test_backend_band_brackets_backend_base(self, hybrid_stack):
        evaluator = BatchEvaluator()
        for name in ("act", "lca", "first_order"):
            result = monte_carlo(
                hybrid_stack, samples=40, seed=6, evaluator=evaluator,
                backend=name,
            )
            base = evaluator.backend_total_kg(hybrid_stack, name)
            assert result.base_kg == base
            assert result.p05 < base < result.p95

    def test_model_scoped_draws_reproducible(self, hybrid_stack):
        first = monte_carlo(hybrid_stack, samples=15, seed=4, backend="lca")
        second = monte_carlo(hybrid_stack, samples=15, seed=4, backend="lca")
        assert first.samples_kg == second.samples_kg

    def test_scalar_reference_rejects_model_scoped_factors(
        self, hybrid_stack
    ):
        """The CarbonModel-only reference cannot price backend constants —
        it must refuse loudly rather than draw factors it never applies."""
        with pytest.raises(ParameterError, match="model-scoped"):
            _monte_carlo_scalar(
                hybrid_stack, factors=lca_factor_set(), samples=5
            )


class TestMonteCarloChunks:
    """The loop perturbs, then evaluates, :data:`DEFAULT_CHUNK_SIZE` draws
    at a time through one memoized evaluator; where a chunk boundary
    falls must not change any draw."""

    @pytest.mark.parametrize("samples", [
        2, DEFAULT_CHUNK_SIZE - 1, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1,
        2 * DEFAULT_CHUNK_SIZE + 1,
    ])
    def test_draws_across_chunk_boundaries_match_the_scalar_path(
        self, hybrid_stack, samples
    ):
        engine = monte_carlo(hybrid_stack, samples=samples, seed=8)
        scalar = _monte_carlo_scalar(hybrid_stack, samples=samples, seed=8)
        assert len(engine.samples_kg) == samples
        assert engine.samples_kg == scalar.samples_kg
        assert engine.base_kg == scalar.base_kg

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_chunked_totals_equal_one_draw_per_fresh_evaluator(
        self, hybrid_stack, params, backend
    ):
        """Model-scoped factor sets (``lca``, ``first_order``) have no
        scalar reference, so each backend's chunked draws are held to
        the same draws priced one at a time, each on an empty memo."""
        plan = PerturbationPlan(
            get_backend(backend).factor_set(hybrid_stack, params), params
        )
        multipliers = plan.draw(DEFAULT_CHUNK_SIZE + 3, 5)

        def totals(rows, evaluator):
            return monte_carlo_totals(
                hybrid_stack, plan, rows, None, params, "taiwan", evaluator,
                backend=backend,
            )

        chunked = totals(multipliers, BatchEvaluator(params=params))
        single = [
            totals(multipliers[index:index + 1],
                   BatchEvaluator(params=params))[0]
            for index in range(len(multipliers))
        ]
        assert len(chunked) == len(multipliers)
        assert chunked == single
