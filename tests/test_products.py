"""Extra-product tests: 3D V-Cache, HBM stacks and a P100-class part."""

import pytest

from repro import CarbonModel, ParameterSet, Workload
from repro.studies.products import (
    hbm_stack_design,
    p100_class_design,
    ryzen_5800x3d_design,
)

PARAMS = ParameterSet.default()


class TestProducts:
    def test_v_cache_validates_and_evaluates(self):
        design = ryzen_5800x3d_design()
        design.validate(PARAMS)
        report = CarbonModel(design, PARAMS).evaluate()
        assert report.embodied_kg > 0
        assert report.embodied.bonding_kg > 0  # hybrid bond step

    def test_v_cache_cheaper_than_double_ccd(self):
        """Stacking a small SRAM die costs less than doubling the CCD."""
        from repro import ChipDesign

        stacked = CarbonModel(ryzen_5800x3d_design(), PARAMS).embodied()
        doubled = CarbonModel(
            ChipDesign.planar_2d("big_ccd", "7nm", area_mm2=162.0), PARAMS
        ).embodied()
        assert stacked.total_kg < doubled.total_kg * 1.5

    def test_hbm_stack_tiers(self):
        design = hbm_stack_design(dram_tiers=4)
        assert design.die_count == 5
        design.validate(PARAMS)
        report = CarbonModel(design, PARAMS).evaluate()
        assert report.embodied_kg > 0
        # 4 tiers → 4 bonds.
        assert len(report.embodied.bonding.records) == 4

    def test_hbm_taller_stack_costs_more(self):
        two = CarbonModel(hbm_stack_design(2), PARAMS).embodied().total_kg
        eight = CarbonModel(hbm_stack_design(8), PARAMS).embodied().total_kg
        assert eight > two

    def test_hbm_rejects_zero_tiers(self):
        with pytest.raises(ValueError):
            hbm_stack_design(0)

    def test_p100_class_has_interposer(self):
        design = p100_class_design()
        design.validate(PARAMS)
        report = CarbonModel(design, PARAMS).evaluate()
        assert report.embodied.interposer_kg > 0
        # The interposer spans GPU + 4 HBM sites.
        assert (report.embodied.interposer.area_mm2
                > 610.0 + 4 * 96.0)

    def test_p100_bandwidth_satisfied(self):
        """An interposer easily feeds a 21-TOPS 16 nm GPU (Sec. 3.4)."""
        report = CarbonModel(p100_class_design(), PARAMS).evaluate(
            Workload.autonomous_vehicle()
        )
        assert report.valid
