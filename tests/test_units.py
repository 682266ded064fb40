"""Unit-conversion tests: the power-of-ten backbone of the model."""

import math

import pytest

from repro.errors import UnitError
from repro import units


class TestArea:
    def test_mm2_to_cm2(self):
        assert units.mm2_to_cm2(100.0) == 1.0

    def test_um2_to_mm2(self):
        assert units.um2_to_mm2(1.0e6) == 1.0


class TestWaferGeometry:
    def test_wafer_area_300mm(self):
        # π·150² = 70685.83 mm²
        assert units.wafer_area_mm2(300.0) == pytest.approx(70685.83, rel=1e-6)

    def test_table2_wafer_area_range(self):
        """Table 2: A_wafer spans 31,415.93–159,043.13 mm² (200–450 mm)."""
        assert units.wafer_area_mm2(200.0) == pytest.approx(31415.93, abs=0.01)
        assert units.wafer_area_mm2(450.0) == pytest.approx(159043.13, abs=0.01)

    @pytest.mark.parametrize("diameter", units.WAFER_DIAMETERS_MM)
    def test_standard_wafer_area_in_cm2(self, diameter):
        """A_wafer = π·(d/2)², and mm² → cm² divides by exactly 100."""
        area = units.wafer_area_mm2(diameter)
        assert area == pytest.approx(math.pi * (diameter / 2.0) ** 2)
        assert units.mm2_to_cm2(area) * 100.0 == pytest.approx(area)
        assert units.um2_to_mm2(area * 1.0e6) == pytest.approx(area)

    def test_negative_diameter_rejected(self):
        with pytest.raises(UnitError):
            units.wafer_area_mm2(-1.0)


class TestCarbonEnergy:
    def test_grams_per_kwh(self):
        assert units.grams_per_kwh(500.0) == 0.5

    def test_grams_negative_rejected(self):
        with pytest.raises(UnitError):
            units.grams_per_kwh(-1.0)


class TestInterfaces:
    def test_gbps_conversion(self):
        assert units.gbps_to_bits_per_s(3.4) == pytest.approx(3.4e9)

    def test_terabytes_per_s(self):
        assert units.terabytes_per_s(8.0e12) == pytest.approx(1.0)
