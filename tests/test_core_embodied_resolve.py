"""Embodied-orchestration (Eq. 3) and design-resolution tests."""

import pytest

from repro import ChipDesign, ParameterSet
from repro.config.integration import AssemblyFlow, SubstrateKind
from repro.core.embodied import embodied_carbon
from repro.core.resolve import resolve_design

PARAMS = ParameterSet.default()
CI = PARAMS.grid("taiwan").kg_co2_per_kwh


class TestResolve:
    def test_2d_resolution(self, orin_2d):
        resolved = resolve_design(orin_2d, PARAMS)
        assert len(resolved.dies) == 1
        assert resolved.substrate is None
        assert not resolved.is_m3d
        assert len(resolved.stack_yields.per_die) == 1
        assert resolved.stack_yields.per_bond == ()

    def test_3d_resolution(self, hybrid_stack):
        resolved = resolve_design(hybrid_stack, PARAMS)
        assert len(resolved.dies) == 2
        assert len(resolved.stack_yields.per_bond) == 1
        assert resolved.substrate is None

    def test_25d_resolution(self, emib_assembly):
        resolved = resolve_design(emib_assembly, PARAMS)
        assert resolved.substrate is not None
        assert resolved.substrate.kind is SubstrateKind.EMIB_BRIDGE
        assert resolved.substrate.area_mm2 > 0
        assert resolved.stack_yields.substrate is not None

    def test_m3d_resolution(self, m3d_stack):
        resolved = resolve_design(m3d_stack, PARAMS)
        assert resolved.is_m3d
        assert resolved.m3d_stack.footprint_mm2 == pytest.approx(
            max(d.area_mm2 for d in resolved.dies)
        )
        assert len(resolved.m3d_stack.tier_layers) == 2

    def test_m3d_defect_penalty(self, m3d_stack):
        """The merged stack yields below a same-size single die."""
        from repro.core.yield_model import die_yield

        resolved = resolve_design(m3d_stack, PARAMS)
        node = resolved.dies[0].node
        plain = die_yield(
            resolved.m3d_stack.footprint_mm2,
            node.defect_density_per_cm2,
            node.alpha,
        )
        assert resolved.m3d_stack.raw_yield < plain

    def test_yield_override_respected(self):
        design = ChipDesign.planar_2d("forced", "7nm", gate_count=1e9)
        die = design.dies[0].with_overrides(yield_override=0.42)
        design = design.with_overrides(dies=(die,))
        resolved = resolve_design(design, PARAMS)
        assert resolved.dies[0].raw_yield == 0.42

    def test_beol_override_respected(self):
        design = ChipDesign.planar_2d("forced", "7nm", gate_count=1e9)
        die = design.dies[0].with_overrides(beol_layers=5)
        design = design.with_overrides(dies=(die,))
        resolved = resolve_design(design, PARAMS)
        assert resolved.dies[0].beol.layers == 5.0

    def test_total_and_max_area(self, emib_assembly):
        resolved = resolve_design(emib_assembly, PARAMS)
        assert resolved.total_die_area_mm2 == pytest.approx(
            sum(d.area_mm2 for d in resolved.dies)
        )
        assert resolved.max_die_area_mm2 == max(
            d.area_mm2 for d in resolved.dies
        )

    @pytest.mark.parametrize("integration, kind", [
        ("si_interposer", SubstrateKind.SILICON_INTERPOSER),
        ("emib", SubstrateKind.EMIB_BRIDGE),
        ("info", SubstrateKind.RDL),
    ])
    def test_substrate_area_follows_eq13_14(self, orin_2d, integration, kind):
        """Eq. 13 scales the total die area (silicon interposer); Eq. 14
        scales gap × adjacent edge length (EMIB bridge, InFO RDL)."""
        design = ChipDesign.homogeneous_split(orin_2d, integration)
        resolved = resolve_design(design, PARAMS)
        geometry = resolved.substrate
        sub = PARAMS.substrate
        assert geometry.kind is kind
        assert geometry.adjacent_length_mm > 0
        dies_mm2 = sum(d.area_mm2 for d in resolved.dies)
        expected = {
            SubstrateKind.SILICON_INTERPOSER:
                sub.si_interposer_scale * dies_mm2,
            SubstrateKind.EMIB_BRIDGE:
                sub.emib_scale * sub.die_gap_mm
                * geometry.adjacent_length_mm,
            SubstrateKind.RDL:
                sub.rdl_scale * sub.die_gap_mm * geometry.adjacent_length_mm,
        }[kind]
        assert geometry.area_mm2 == pytest.approx(expected, rel=1e-12)

    def test_mcm_has_organic_substrate_geometry(self, orin_2d):
        mcm = ChipDesign.homogeneous_split(orin_2d, "mcm")
        resolved = resolve_design(mcm, PARAMS)
        assert resolved.substrate is not None
        assert resolved.substrate.kind is SubstrateKind.ORGANIC
        assert resolved.substrate.area_mm2 == 0.0


class TestEmbodied:
    def test_breakdown_sums_to_total(self, emib_assembly):
        report = embodied_carbon(emib_assembly, PARAMS, CI)
        assert sum(report.breakdown().values()) == pytest.approx(
            report.total_kg
        )

    def test_2d_has_only_die_and_packaging(self, orin_2d):
        report = embodied_carbon(orin_2d, PARAMS, CI)
        assert report.bonding_kg == 0.0
        assert report.interposer_kg == 0.0
        assert report.die_kg > 0
        assert report.packaging_kg > 0

    def test_accepts_resolved_design(self, orin_2d):
        resolved = resolve_design(orin_2d, PARAMS)
        a = embodied_carbon(orin_2d, PARAMS, CI)
        b = embodied_carbon(resolved, PARAMS, CI)
        assert a.total_kg == pytest.approx(b.total_kg)

    def test_eq3_component_presence_by_family(self, orin_2d):
        """Eq. 3: which components appear for which family."""
        hybrid = embodied_carbon(
            ChipDesign.homogeneous_split(orin_2d, "hybrid_3d"), PARAMS, CI
        )
        assert hybrid.bonding_kg > 0 and hybrid.interposer_kg == 0
        emib = embodied_carbon(
            ChipDesign.homogeneous_split(orin_2d, "emib"), PARAMS, CI
        )
        assert emib.bonding_kg > 0 and emib.interposer_kg > 0
        m3d = embodied_carbon(
            ChipDesign.homogeneous_split(orin_2d, "m3d"), PARAMS, CI
        )
        assert m3d.bonding_kg == 0 and m3d.interposer_kg == 0

    def test_beol_ablation_increases_carbon(self, orin_2d):
        """Disabling the BEOL-aware refinement prices full stacks (A1)."""
        aware = embodied_carbon(orin_2d, PARAMS, CI)
        flat = embodied_carbon(
            orin_2d, PARAMS.with_beol_aware(False), CI
        )
        assert flat.total_kg > aware.total_kg

    def test_wafer_size_ablation(self, orin_2d):
        """Bigger wafers waste less edge area (A2)."""
        small = embodied_carbon(
            orin_2d, PARAMS.with_wafer_diameter(200.0), CI
        )
        large = embodied_carbon(
            orin_2d, PARAMS.with_wafer_diameter(450.0), CI
        )
        assert large.total_kg < small.total_kg

    def test_d2w_vs_w2w_ablation(self, lakefield_like):
        """D2W total embodied below W2W for Lakefield (Sec. 4.2, A3)."""
        d2w = embodied_carbon(lakefield_like, PARAMS, CI)
        w2w = embodied_carbon(
            lakefield_like.with_overrides(assembly=AssemblyFlow.W2W),
            PARAMS,
            CI,
        )
        assert d2w.total_kg < w2w.total_kg

    def test_report_metadata(self, emib_assembly):
        report = embodied_carbon(emib_assembly, PARAMS, CI)
        assert report.integration == "emib"
        assert report.design_name == emib_assembly.name
