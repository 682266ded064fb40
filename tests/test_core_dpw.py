"""Dies-per-wafer tests (Eq. 5)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpw import (
    dies_per_wafer,
    effective_area_per_die_mm2,
)
from repro.errors import DesignError, ParameterError
from repro.units import wafer_area_mm2


class TestDiesPerWafer:
    def test_formula_value(self):
        """300 mm wafer, 100 mm² die: π·150²/100 − π·300/√200."""
        expected = math.pi * 150**2 / 100 - math.pi * 300 / math.sqrt(200)
        assert dies_per_wafer(300.0, 100.0) == pytest.approx(expected)

    def test_monotone_decreasing_in_area(self):
        assert dies_per_wafer(300.0, 50.0) > dies_per_wafer(300.0, 100.0)

    def test_monotone_increasing_in_diameter(self):
        assert dies_per_wafer(450.0, 100.0) > dies_per_wafer(200.0, 100.0)

    def test_oversized_die_raises(self):
        with pytest.raises(DesignError):
            dies_per_wafer(200.0, 25000.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            dies_per_wafer(-300.0, 100.0)
        with pytest.raises(ParameterError):
            dies_per_wafer(300.0, 0.0)

    def test_epyc_io_die(self):
        """416 mm² on 300 mm: ~137 dies (Sec. 4.1 inputs)."""
        assert dies_per_wafer(300.0, 416.0) == pytest.approx(137.2, abs=0.5)


class TestEffectiveArea:
    def test_exceeds_die_area(self):
        """Edge losses are shared: every die pays more than its own area."""
        assert effective_area_per_die_mm2(300.0, 100.0) > 100.0

    def test_small_dies_waste_less(self):
        overhead_small = effective_area_per_die_mm2(300.0, 50.0) / 50.0
        overhead_large = effective_area_per_die_mm2(300.0, 500.0) / 500.0
        assert overhead_small < overhead_large

    def test_bigger_wafer_less_overhead(self):
        overhead_200 = effective_area_per_die_mm2(200.0, 100.0)
        overhead_450 = effective_area_per_die_mm2(450.0, 100.0)
        assert overhead_450 < overhead_200

    def test_consistency_with_dpw(self):
        dpw = dies_per_wafer(300.0, 229.0)
        assert effective_area_per_die_mm2(300.0, 229.0) == pytest.approx(
            wafer_area_mm2(300.0) / dpw
        )


class TestEdgeLoss:
    """Eq. 5's second term: the partial dies lost on the circumference."""

    @pytest.mark.parametrize("diameter", [200.0, 300.0, 450.0])
    def test_edge_term_is_circumference_over_die_diagonal(self, diameter):
        for area in (50.0, 100.0, 416.0):
            gross = wafer_area_mm2(diameter) / area
            lost = gross - dies_per_wafer(diameter, area)
            assert lost == pytest.approx(
                math.pi * diameter / math.sqrt(2.0 * area), rel=1e-12
            )

    @pytest.mark.parametrize("diameter", [200.0, 300.0, 450.0])
    def test_larger_die_loses_a_larger_share(self, diameter):
        shares = [
            1.0 - dies_per_wafer(diameter, area) * area
            / wafer_area_mm2(diameter)
            for area in (25.0, 100.0, 400.0)
        ]
        assert all(0.0 < share < 1.0 for share in shares)
        assert shares == sorted(shares)


    @given(
        diameter=st.sampled_from([200.0, 300.0, 450.0]),
        area=st.floats(min_value=1.0, max_value=900.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_dpw_bounded_by_gross(self, diameter, area):
        dpw = dies_per_wafer(diameter, area)
        assert 1.0 <= dpw < wafer_area_mm2(diameter) / area

    @given(
        diameter=st.sampled_from([200.0, 300.0, 450.0]),
        area=st.floats(min_value=1.0, max_value=900.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_used_silicon_below_wafer(self, diameter, area):
        dpw = dies_per_wafer(diameter, area)
        assert dpw * area <= wafer_area_mm2(diameter)

    @given(area=st.floats(min_value=1.0, max_value=900.0))
    @settings(max_examples=100, deadline=None)
    def test_effective_area_at_least_die(self, area):
        assert effective_area_per_die_mm2(300.0, area) >= area
