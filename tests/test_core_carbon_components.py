"""Component-calculator tests: Eq. 4 (die), Eq. 11 (bonding), Eq. 12
(packaging), Eq. 13–14 (interposer)."""

import pytest

from repro import ChipDesign, ParameterSet
from repro.config.integration import AssemblyFlow, SubstrateKind
from repro.core.bonding_carbon import bonding_carbon
from repro.core.die_carbon import die_manufacturing_carbon
from repro.core.interposer_carbon import interposer_carbon
from repro.core.packaging_carbon import package_base_area_mm2, packaging_carbon
from repro.core.resolve import resolve_design

PARAMS = ParameterSet.default()
CI = PARAMS.grid("taiwan").kg_co2_per_kwh


def resolve(design):
    return resolve_design(design, PARAMS)


class TestDieCarbon:
    def test_2d_single_record(self, orin_2d):
        result = die_manufacturing_carbon(resolve(orin_2d), PARAMS, CI)
        assert len(result.records) == 1
        assert result.total_kg > 0

    def test_record_consistency(self, orin_2d):
        record = die_manufacturing_carbon(resolve(orin_2d), PARAMS, CI).records[0]
        expected = (
            record.carbon_per_cm2
            * record.effective_wafer_area_mm2 / 100.0
            / record.effective_yield
        )
        assert record.carbon_kg == pytest.approx(expected)

    def test_split_dies_cheaper_total(self, orin_2d, hybrid_stack):
        """Two half dies yield better than one big die (Eq. 4 + Eq. 15)."""
        full = die_manufacturing_carbon(resolve(orin_2d), PARAMS, CI)
        split = die_manufacturing_carbon(resolve(hybrid_stack), PARAMS, CI)
        assert split.total_kg < full.total_kg

    def test_m3d_merges_to_one_record(self, m3d_stack):
        result = die_manufacturing_carbon(resolve(m3d_stack), PARAMS, CI)
        assert len(result.records) == 1
        assert "m3d" in result.records[0].name

    def test_m3d_footprint_is_max_tier(self, m3d_stack):
        resolved = resolve(m3d_stack)
        record = die_manufacturing_carbon(resolved, PARAMS, CI).records[0]
        assert record.die_area_mm2 == pytest.approx(
            max(d.area_mm2 for d in resolved.dies)
        )

    def test_greener_fab_less_carbon(self, orin_2d):
        dirty = die_manufacturing_carbon(resolve(orin_2d), PARAMS, 0.7)
        clean = die_manufacturing_carbon(resolve(orin_2d), PARAMS, 0.03)
        assert clean.total_kg < dirty.total_kg

    def test_w2w_die_carbon_exceeds_d2w(self, lakefield_like):
        """W2W wastes dies bonded to dead partners (Sec. 4.2)."""
        d2w = die_manufacturing_carbon(resolve(lakefield_like), PARAMS, CI)
        w2w_design = lakefield_like.with_overrides(assembly=AssemblyFlow.W2W)
        w2w = die_manufacturing_carbon(resolve(w2w_design), PARAMS, CI)
        assert w2w.total_kg > d2w.total_kg


class TestBondingCarbon:
    def test_2d_has_none(self, orin_2d):
        assert bonding_carbon(resolve(orin_2d), PARAMS, CI).total_kg == 0.0

    def test_m3d_has_none(self, m3d_stack):
        """Sequential manufacturing performs no bond step."""
        assert bonding_carbon(resolve(m3d_stack), PARAMS, CI).total_kg == 0.0

    def test_3d_has_n_minus_1_bonds(self, hybrid_stack):
        result = bonding_carbon(resolve(hybrid_stack), PARAMS, CI)
        assert len(result.records) == 1  # 2 dies → 1 bond

    def test_25d_has_n_bonds(self, emib_assembly):
        result = bonding_carbon(resolve(emib_assembly), PARAMS, CI)
        assert len(result.records) == 2  # 2 dies → 2 die-attach steps

    def test_record_consistency(self, hybrid_stack):
        record = bonding_carbon(resolve(hybrid_stack), PARAMS, CI).records[0]
        expected = (
            CI * record.epa_kwh_per_cm2 * record.area_mm2 / 100.0
            / record.effective_yield
        )
        assert record.carbon_kg == pytest.approx(expected)

    def test_hybrid_bond_costs_more_than_c4(self, hybrid_stack, emib_assembly):
        hybrid = bonding_carbon(resolve(hybrid_stack), PARAMS, CI)
        emib = bonding_carbon(resolve(emib_assembly), PARAMS, CI)
        # per-step comparison (areas are similar)
        assert (hybrid.records[0].carbon_kg
                > emib.records[0].carbon_kg)

    def test_scales_with_ci(self, hybrid_stack):
        low = bonding_carbon(resolve(hybrid_stack), PARAMS, 0.1)
        high = bonding_carbon(resolve(hybrid_stack), PARAMS, 0.5)
        assert high.total_kg == pytest.approx(5.0 * low.total_kg)


class TestPackagingCarbon:
    def test_2d_base_is_die(self, orin_2d):
        resolved = resolve(orin_2d)
        assert package_base_area_mm2(resolved) == pytest.approx(
            resolved.dies[0].area_mm2
        )

    def test_3d_base_is_max_die(self, lakefield_like):
        resolved = resolve(lakefield_like)
        assert package_base_area_mm2(resolved) == pytest.approx(
            max(d.area_mm2 for d in resolved.dies)
        )

    def test_25d_base_is_total(self, emib_assembly):
        resolved = resolve(emib_assembly)
        assert package_base_area_mm2(resolved) == pytest.approx(
            sum(d.area_mm2 for d in resolved.dies)
        )

    def test_m3d_base_is_footprint(self, m3d_stack):
        resolved = resolve(m3d_stack)
        assert package_base_area_mm2(resolved) == pytest.approx(
            resolved.m3d_stack.footprint_mm2
        )

    def test_area_override_honoured(self, lakefield_like):
        result = packaging_carbon(resolve(lakefield_like), PARAMS)
        assert result.package_area_mm2 == 144.0

    def test_carbon_formula(self, orin_2d):
        result = packaging_carbon(resolve(orin_2d), PARAMS)
        assert result.carbon_kg == pytest.approx(
            result.cpa_kg_per_cm2 * result.package_area_mm2 / 100.0
        )

    def test_3d_package_smaller_than_2d(self, orin_2d, hybrid_stack):
        """Stacking shrinks the package footprint (Sec. 3.2.3)."""
        full = packaging_carbon(resolve(orin_2d), PARAMS)
        stacked = packaging_carbon(resolve(hybrid_stack), PARAMS)
        assert stacked.package_area_mm2 < full.package_area_mm2


class TestInterposerCarbon:
    def test_2d_zero(self, orin_2d):
        result = interposer_carbon(resolve(orin_2d), PARAMS, CI)
        assert result.carbon_kg == 0.0
        assert result.kind is SubstrateKind.NONE

    def test_3d_zero(self, hybrid_stack):
        assert interposer_carbon(resolve(hybrid_stack), PARAMS, CI).carbon_kg == 0.0

    def test_mcm_organic_zero(self, orin_2d):
        mcm = ChipDesign.homogeneous_split(orin_2d, "mcm")
        result = interposer_carbon(resolve(mcm), PARAMS, CI)
        assert result.carbon_kg == 0.0

    def test_emib_bridge_small(self, orin_2d, emib_assembly):
        emib = interposer_carbon(resolve(emib_assembly), PARAMS, CI)
        si = ChipDesign.homogeneous_split(orin_2d, "si_interposer")
        interposer = interposer_carbon(resolve(si), PARAMS, CI)
        assert 0.0 < emib.carbon_kg < interposer.carbon_kg / 3.0

    def test_si_interposer_area_eq13(self, orin_2d):
        si = ChipDesign.homogeneous_split(orin_2d, "si_interposer")
        resolved = resolve(si)
        result = interposer_carbon(resolved, PARAMS, CI)
        expected = (
            PARAMS.substrate.si_interposer_scale
            * sum(d.area_mm2 for d in resolved.dies)
        )
        assert result.area_mm2 == pytest.approx(expected)

    def test_rdl_area_eq14(self, orin_2d):
        info = ChipDesign.homogeneous_split(orin_2d, "info")
        resolved = resolve(info)
        result = interposer_carbon(resolved, PARAMS, CI)
        expected = (
            PARAMS.substrate.rdl_scale
            * PARAMS.substrate.die_gap_mm
            * resolved.substrate.adjacent_length_mm
        )
        assert result.area_mm2 == pytest.approx(expected)

    def test_interposer_carbon_significant(self, orin_2d):
        """Sec. 5.1: the silicon interposer dominates its design's penalty."""
        si = ChipDesign.homogeneous_split(orin_2d, "si_interposer")
        resolved = resolve(si)
        sub = interposer_carbon(resolved, PARAMS, CI)
        dies = die_manufacturing_carbon(resolved, PARAMS, CI)
        assert sub.carbon_kg > 0.2 * dies.total_kg
