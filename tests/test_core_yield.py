"""Yield-model tests: Eq. 15 and the Table 3 compositions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.integration import AssemblyFlow
from repro.core.yield_model import (
    StackYields,
    die_yield,
    three_d_stack_yields,
    two_five_d_yields,
)
from repro.errors import DesignError, ParameterError
from repro.studies.anchors import ANCHORS


class TestEq15DieYield:
    def test_closed_form(self):
        # (1 + 1 cm² · 0.1 / 10)^-10
        assert die_yield(100.0, 0.1, 10.0) == pytest.approx(1.01**-10)

    def test_zero_area_limit(self):
        assert die_yield(1e-9, 0.1, 10.0) == pytest.approx(1.0, abs=1e-6)

    def test_zero_defects(self):
        assert die_yield(500.0, 0.0, 10.0) == 1.0

    def test_monotone_decreasing_in_area(self):
        assert die_yield(50.0, 0.1, 10.0) > die_yield(500.0, 0.1, 10.0)

    def test_monotone_decreasing_in_d0(self):
        assert die_yield(100.0, 0.05, 10.0) > die_yield(100.0, 0.2, 10.0)

    def test_poisson_limit_for_large_alpha(self):
        """α → ∞ recovers exp(−A·D₀)."""
        area, d0 = 200.0, 0.1
        nb = die_yield(area, d0, 1e6)
        poisson = math.exp(-2.0 * d0)
        assert nb == pytest.approx(poisson, rel=1e-4)

    def test_lakefield_logic_anchor(self):
        """82 mm² at the calibrated 7 nm D₀ yields 89.3 % (Sec. 4.2)."""
        assert die_yield(82.0, 0.139, 10.0) == pytest.approx(
            ANCHORS["lakefield.d2w_logic_yield"].paper, abs=0.002
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            die_yield(-1.0, 0.1, 10.0)
        with pytest.raises(ParameterError):
            die_yield(100.0, -0.1, 10.0)
        with pytest.raises(ParameterError):
            die_yield(100.0, 0.1, 0.0)


class TestThreeDStackYields:
    def test_d2w_composition(self):
        """Table 3 D2W: Y_die_i = y_i · y_b^(N−i)."""
        yields = three_d_stack_yields([0.9, 0.8, 0.7], 0.95, AssemblyFlow.D2W)
        assert yields.per_die[0] == pytest.approx(0.9 * 0.95**2)
        assert yields.per_die[1] == pytest.approx(0.8 * 0.95)
        assert yields.per_die[2] == pytest.approx(0.7)

    def test_d2w_bond_yields(self):
        yields = three_d_stack_yields([0.9, 0.8, 0.7], 0.95, AssemblyFlow.D2W)
        assert len(yields.per_bond) == 2
        assert yields.per_bond[0] == pytest.approx(0.95**2)
        assert yields.per_bond[1] == pytest.approx(0.95)

    def test_w2w_composition(self):
        """Table 3 W2W: every die carries the whole stack's yield."""
        yields = three_d_stack_yields([0.9, 0.8], 0.97, AssemblyFlow.W2W)
        stack = 0.9 * 0.8 * 0.97
        assert yields.per_die == (pytest.approx(stack), pytest.approx(stack))
        assert yields.per_bond == (pytest.approx(stack),)

    def test_top_die_unaffected_in_d2w(self):
        """The last-placed die survives no further bonds."""
        yields = three_d_stack_yields([0.9, 0.8], 0.5, AssemblyFlow.D2W)
        assert yields.per_die[-1] == pytest.approx(0.8)

    def test_d2w_beats_w2w_for_effective_die_yield(self):
        """Known-good-die testing keeps D2W per-die yields above W2W."""
        d2w = three_d_stack_yields([0.9, 0.85], 0.96, AssemblyFlow.D2W)
        w2w = three_d_stack_yields([0.9, 0.85], 0.97, AssemblyFlow.W2W)
        assert min(d2w.per_die) > min(w2w.per_die)

    def test_single_die_rejected(self):
        with pytest.raises(DesignError):
            three_d_stack_yields([0.9], 0.95, AssemblyFlow.D2W)

    def test_bad_flow_rejected(self):
        with pytest.raises(DesignError):
            three_d_stack_yields([0.9, 0.8], 0.95, AssemblyFlow.CHIP_LAST)

    def test_bad_yield_rejected(self):
        with pytest.raises(ParameterError):
            three_d_stack_yields([1.5, 0.8], 0.95, AssemblyFlow.D2W)


class TestTwoFiveDYields:
    def test_chip_first(self):
        """Table 3: Y_die = y_die·y_sub; Y_bond = 1."""
        yields = two_five_d_yields(
            [0.9, 0.8], 0.95, 0.99, AssemblyFlow.CHIP_FIRST
        )
        assert yields.per_die[0] == pytest.approx(0.9 * 0.95)
        assert yields.per_die[1] == pytest.approx(0.8 * 0.95)
        assert all(b == 1.0 for b in yields.per_bond)
        assert yields.substrate == pytest.approx(0.95)

    def test_chip_last(self):
        """Table 3: Y_die = y_die·Πy_bond; Y_sub = y_sub·Πy_bond."""
        yields = two_five_d_yields(
            [0.9, 0.8], 0.95, 0.99, AssemblyFlow.CHIP_LAST
        )
        bond_product = 0.99**2
        assert yields.per_die[0] == pytest.approx(0.9 * bond_product)
        assert yields.per_die[1] == pytest.approx(0.8 * bond_product)
        assert yields.substrate == pytest.approx(0.95 * bond_product)
        assert all(
            b == pytest.approx(bond_product) for b in yields.per_bond
        )

    def test_bond_count_matches_die_count(self):
        yields = two_five_d_yields(
            [0.9, 0.8, 0.85], 0.95, 0.99, AssemblyFlow.CHIP_LAST
        )
        assert len(yields.per_bond) == 3

    def test_bad_flow_rejected(self):
        with pytest.raises(DesignError):
            two_five_d_yields([0.9, 0.8], 0.95, 0.99, AssemblyFlow.W2W)

    def test_single_die_rejected(self):
        with pytest.raises(DesignError):
            two_five_d_yields([0.9], 0.95, 0.99, AssemblyFlow.CHIP_LAST)


class TestStackYieldsContainer:
    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            StackYields(per_die=(1.2,), per_bond=())
        with pytest.raises(ParameterError):
            StackYields(per_die=(0.9,), per_bond=(0.0,))


class TestProperties:
    yields_strategy = st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=6
    )

    @given(
        die_yields=yields_strategy,
        bond=st.floats(min_value=0.5, max_value=1.0),
        flow=st.sampled_from([AssemblyFlow.D2W, AssemblyFlow.W2W]),
    )
    @settings(max_examples=200, deadline=None)
    def test_3d_effective_below_raw(self, die_yields, bond, flow):
        """Composition can only lose yield, never gain it."""
        yields = three_d_stack_yields(die_yields, bond, flow)
        for effective, raw in zip(yields.per_die, die_yields):
            assert effective <= raw + 1e-12
        for value in yields.per_die + yields.per_bond:
            assert 0.0 < value <= 1.0

    @given(
        die_yields=yields_strategy,
        sub=st.floats(min_value=0.5, max_value=1.0),
        bond=st.floats(min_value=0.5, max_value=1.0),
        flow=st.sampled_from(
            [AssemblyFlow.CHIP_FIRST, AssemblyFlow.CHIP_LAST]
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_25d_effective_below_raw(self, die_yields, sub, bond, flow):
        yields = two_five_d_yields(die_yields, sub, bond, flow)
        for effective, raw in zip(yields.per_die, die_yields):
            assert effective <= raw + 1e-12
        assert yields.substrate is not None
        assert yields.substrate <= sub + 1e-12

    @given(
        area=st.floats(min_value=0.1, max_value=2000.0),
        d0=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_eq15_in_unit_interval(self, area, d0, alpha):
        assert 0.0 < die_yield(area, d0, alpha) <= 1.0
