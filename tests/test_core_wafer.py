"""Wafer-carbon tests (Eq. 6 and the M3D sequential variant)."""

import pytest

from repro.config.m3d import M3DParameters
from repro.config.parameters import DEFAULT_PARAMETERS
from repro.core.wafer import (
    m3d_wafer_carbon_per_cm2,
    wafer_carbon_per_cm2,
)
from repro.errors import ParameterError

NODE_7 = DEFAULT_PARAMETERS.node("7nm")
NODE_14 = DEFAULT_PARAMETERS.node("14nm")
M3D = M3DParameters()
CI = 0.509  # Taiwan grid


class TestEq6:
    def test_components(self):
        b = wafer_carbon_per_cm2(NODE_7, CI, beol_aware=False)
        assert b.energy_kg_per_cm2 == pytest.approx(CI * NODE_7.epa_kwh_per_cm2)
        assert b.gas_kg_per_cm2 == NODE_7.gpa_kg_per_cm2
        assert b.material_kg_per_cm2 == NODE_7.mpa_kg_per_cm2

    def test_total_is_sum(self):
        b = wafer_carbon_per_cm2(NODE_7, CI, beol_aware=False)
        assert b.total_kg_per_cm2 == pytest.approx(
            b.energy_kg_per_cm2 + b.gas_kg_per_cm2 + b.material_kg_per_cm2
        )

    def test_beol_aware_at_max_equals_flat(self):
        """At the node's max layer count the split reassembles exactly."""
        flat = wafer_carbon_per_cm2(NODE_7, CI, beol_aware=False)
        aware = wafer_carbon_per_cm2(
            NODE_7, CI, beol_layers=float(NODE_7.max_beol_layers)
        )
        assert aware.total_kg_per_cm2 == pytest.approx(flat.total_kg_per_cm2)

    def test_fewer_layers_less_carbon(self):
        """The paper's BEOL lever: shallower stacks emit less."""
        deep = wafer_carbon_per_cm2(NODE_7, CI, beol_layers=13.0)
        shallow = wafer_carbon_per_cm2(NODE_7, CI, beol_layers=8.0)
        assert shallow.total_kg_per_cm2 < deep.total_kg_per_cm2

    def test_layers_do_not_change_material(self):
        deep = wafer_carbon_per_cm2(NODE_7, CI, beol_layers=13.0)
        shallow = wafer_carbon_per_cm2(NODE_7, CI, beol_layers=8.0)
        assert deep.material_kg_per_cm2 == shallow.material_kg_per_cm2

    def test_greener_grid_less_carbon(self):
        dirty = wafer_carbon_per_cm2(NODE_7, 0.7, beol_aware=False)
        clean = wafer_carbon_per_cm2(NODE_7, 0.03, beol_aware=False)
        assert clean.total_kg_per_cm2 < dirty.total_kg_per_cm2

    def test_rejects_negative_ci(self):
        with pytest.raises(ParameterError):
            wafer_carbon_per_cm2(NODE_7, -0.1)

    def test_rejects_negative_layers(self):
        with pytest.raises(ParameterError):
            wafer_carbon_per_cm2(NODE_7, CI, beol_layers=-1.0)


NODE_NAMES = [n.name for n in DEFAULT_PARAMETERS.technology]


class TestEq6EveryNode:
    """Eq. 6 with the BEOL-aware split, on every row of the node table."""

    @pytest.mark.parametrize("name", NODE_NAMES)
    def test_full_stack_equals_flat(self, name):
        n = DEFAULT_PARAMETERS.node(name)
        flat = wafer_carbon_per_cm2(n, CI, beol_aware=False)
        aware = wafer_carbon_per_cm2(
            n, CI, beol_layers=float(n.max_beol_layers)
        )
        assert aware.energy_kg_per_cm2 == pytest.approx(
            flat.energy_kg_per_cm2, rel=1e-12
        )
        assert aware.gas_kg_per_cm2 == pytest.approx(
            flat.gas_kg_per_cm2, rel=1e-12
        )
        assert aware.material_kg_per_cm2 == flat.material_kg_per_cm2

    @pytest.mark.parametrize("name", NODE_NAMES)
    def test_each_metal_layer_adds_its_share(self, name):
        """C(L) is linear in L: each metal layer adds its share of the BEOL
        energy and gas, and zero layers leave the FEOL part alone."""
        n = DEFAULT_PARAMETERS.node(name)
        epa_feol, epa_per_layer, gpa_feol, gpa_per_layer = n.beol_split
        step = CI * epa_per_layer + gpa_per_layer
        totals = [
            wafer_carbon_per_cm2(n, CI, beol_layers=float(layers))
            .total_kg_per_cm2
            for layers in range(n.max_beol_layers + 1)
        ]
        for shallow, deep in zip(totals, totals[1:]):
            assert deep - shallow == pytest.approx(step, rel=1e-9)
        feol = CI * epa_feol + gpa_feol + n.mpa_kg_per_cm2
        assert totals[0] == pytest.approx(feol, rel=1e-12)


class TestM3DWafer:
    def two_tier(self, layers=8.0):
        return [(NODE_7, layers), (NODE_7, layers)]

    def test_costs_more_per_cm2_than_single_wafer(self):
        """Sequential processing adds FEOL + ILD passes per footprint."""
        single = wafer_carbon_per_cm2(NODE_7, CI, beol_layers=8.0)
        stacked = m3d_wafer_carbon_per_cm2(self.two_tier(), CI, M3D)
        assert stacked.total_kg_per_cm2 > single.total_kg_per_cm2

    def test_costs_less_than_two_wafers(self):
        """...but far less than two independently processed wafers."""
        single = wafer_carbon_per_cm2(NODE_7, CI, beol_layers=8.0)
        stacked = m3d_wafer_carbon_per_cm2(self.two_tier(), CI, M3D)
        assert stacked.total_kg_per_cm2 < 2.0 * single.total_kg_per_cm2

    def test_material_charged_once(self):
        stacked = m3d_wafer_carbon_per_cm2(self.two_tier(), CI, M3D)
        assert stacked.material_kg_per_cm2 == NODE_7.mpa_kg_per_cm2

    def test_heterogeneous_tiers(self):
        mixed = m3d_wafer_carbon_per_cm2(
            [(NODE_14, 8.0), (NODE_7, 8.0)], CI, M3D
        )
        pure = m3d_wafer_carbon_per_cm2(self.two_tier(), CI, M3D)
        assert mixed.total_kg_per_cm2 != pytest.approx(pure.total_kg_per_cm2)
        assert mixed.material_kg_per_cm2 == NODE_14.mpa_kg_per_cm2

    def test_overhead_scales_with_parameter(self):
        cheap = m3d_wafer_carbon_per_cm2(
            self.two_tier(), CI, M3DParameters(feol_overhead=0.1)
        )
        costly = m3d_wafer_carbon_per_cm2(
            self.two_tier(), CI, M3DParameters(feol_overhead=0.9)
        )
        assert cheap.total_kg_per_cm2 < costly.total_kg_per_cm2

    def test_single_tier_rejected(self):
        with pytest.raises(ParameterError):
            m3d_wafer_carbon_per_cm2([(NODE_7, 8.0)], CI, M3D)

    def test_too_many_tiers_rejected(self):
        with pytest.raises(ParameterError):
            m3d_wafer_carbon_per_cm2(
                [(NODE_7, 8.0)] * 3, CI, M3D
            )

    def test_negative_layers_rejected(self):
        with pytest.raises(ParameterError):
            m3d_wafer_carbon_per_cm2([(NODE_7, -1.0), (NODE_7, 8.0)], CI, M3D)

    def test_beol_unaware_mode(self):
        aware = m3d_wafer_carbon_per_cm2(self.two_tier(), CI, M3D)
        unaware = m3d_wafer_carbon_per_cm2(
            self.two_tier(), CI, M3D, beol_aware=False
        )
        # Unaware mode charges full per-tier wafer processing: at 8 of 13
        # layers the aware mode must be cheaper.
        assert aware.total_kg_per_cm2 < unaware.total_kg_per_cm2
