"""Grid, surveyed-power, M3D and aggregated ParameterSet tests."""

import pytest

from repro.config.bonding import DEFAULT_BONDING_TABLE
from repro.config.grid import DEFAULT_GRID_TABLE, GridProfile, GridTable
from repro.config.integration import DEFAULT_INTEGRATION_TABLE
from repro.config.packaging import DEFAULT_PACKAGING_TABLE
from repro.config.technology import DEFAULT_TECHNOLOGY_TABLE
from repro.config.m3d import M3DParameters
from repro.config.parameters import (
    BandwidthConstraintParameters,
    ParameterSet,
)
from repro.config.power import (
    NVIDIA_DRIVE_SERIES,
    DeviceSurvey,
    surveyed_efficiency,
)
from repro.errors import ParameterError, UnknownTechnologyError
from repro.studies.drive import drive_2d_design


class TestGrids:
    def test_table2_range_span(self):
        """Table 2: CI 30–700 g CO₂/kWh — both extremes are available."""
        intensities = [g.g_co2_per_kwh for g in DEFAULT_GRID_TABLE]
        assert min(intensities) <= 30.0
        assert max(intensities) >= 700.0

    def test_lookup_by_name(self):
        assert DEFAULT_GRID_TABLE.get("taiwan").g_co2_per_kwh == 509.0

    def test_lookup_by_value(self):
        grid = ParameterSet.default().grid(123.0)
        assert grid.name == "custom_123"
        assert grid.g_co2_per_kwh == 123.0
        assert grid.kg_co2_per_kwh == pytest.approx(0.123)
        # A raw intensity becomes a profile in ParameterSet.grid; the
        # table itself holds named locations only.
        with pytest.raises(UnknownTechnologyError):
            DEFAULT_GRID_TABLE.get(123.0)

    def test_case_and_space_insensitive(self):
        assert DEFAULT_GRID_TABLE.get("South Korea").name == "south_korea"

    def test_unknown_location_raises(self):
        with pytest.raises(UnknownTechnologyError):
            DEFAULT_GRID_TABLE.get("atlantis")

    def test_kg_conversion(self):
        assert DEFAULT_GRID_TABLE.get("iceland").kg_co2_per_kwh == 0.03

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            GridProfile("bad", 2000.0)

    def test_with_record_is_copy_on_write(self):
        table = GridTable()
        fab = GridProfile("arizona_solar", 90.0, "on-site solar")
        cleaner = GridProfile("taiwan", 300.0)
        extended = table.with_record(fab).with_record(cleaner)
        assert extended.get("Arizona Solar") is fab
        assert extended.get("taiwan") is cleaner
        assert "arizona_solar" not in table
        assert table.get("taiwan").g_co2_per_kwh == 509.0
        assert [g.name for g in extended] == (
            [g.name for g in table] + ["arizona_solar"]
        )

    def test_contains(self):
        assert "taiwan" in DEFAULT_GRID_TABLE
        assert "atlantis" not in DEFAULT_GRID_TABLE


class TestDeviceSurvey:
    def test_table4_rows(self):
        """Table 4 values, verbatim."""
        expected = {
            "PX2": ("16nm", 15.3, 0.75, 2016),
            "XAVIER": ("12nm", 21.0, 1.00, 2017),
            "ORIN": ("7nm", 17.0, 2.74, 2019),
            "THOR": ("5nm", 77.0, 12.5, 2022),
        }
        assert len(NVIDIA_DRIVE_SERIES) == 4
        for device in NVIDIA_DRIVE_SERIES:
            node, gates, eff, year = expected[device.name]
            assert device.node == node
            assert device.gate_count_billion == gates
            assert device.efficiency_tops_per_w == eff
            assert device.announced_year == year

    def test_efficiency_grows_over_generations(self):
        """Sec. 5.1: exponential efficiency growth over time."""
        effs = [d.efficiency_tops_per_w for d in NVIDIA_DRIVE_SERIES]
        assert all(a < b for a, b in zip(effs, effs[1:]))

    def test_gate_count_scaling(self):
        thor = next(d for d in NVIDIA_DRIVE_SERIES if d.name == "THOR")
        assert thor.gate_count == 77e9

    @pytest.mark.parametrize(
        "device", NVIDIA_DRIVE_SERIES, ids=lambda d: d.name
    )
    def test_drive_reference_carries_its_table4_row(self, device):
        """The DRIVE study looks a device up by name, any case."""
        for name in (device.name, device.name.lower()):
            design = drive_2d_design(name)
            (die,) = design.dies
            assert design.name == f"{device.name}_2D"
            assert die.node == device.node
            assert die.gate_count == device.gate_count
            assert design.throughput_tops == device.throughput_tops
            assert die.efficiency_tops_per_w == device.efficiency_tops_per_w

    def test_unknown_device_raises(self):
        with pytest.raises(ParameterError, match="PEGASUS"):
            drive_2d_design("PEGASUS")

    def test_surveyed_efficiency_matches_drive_nodes(self):
        for device in NVIDIA_DRIVE_SERIES:
            assert surveyed_efficiency(device.node) == pytest.approx(
                device.efficiency_tops_per_w
            )

    def test_surveyed_unknown_node_raises(self):
        with pytest.raises(UnknownTechnologyError):
            surveyed_efficiency("1nm")

    def test_bad_device_rejected(self):
        with pytest.raises(ParameterError):
            DeviceSurvey("bad", "7nm", -1.0, 1.0, 2020, 10.0)


class TestM3DParameters:
    def test_defaults_valid(self):
        m3d = M3DParameters()
        assert 0.0 <= m3d.feol_overhead <= 1.0
        assert m3d.defect_density_factor >= 1.0
        assert m3d.max_tiers == 2

    def test_bad_overhead_rejected(self):
        with pytest.raises(ParameterError):
            M3DParameters(feol_overhead=1.5)

    def test_defect_improvement_rejected(self):
        with pytest.raises(ParameterError):
            M3DParameters(defect_density_factor=0.9)

    def test_override(self):
        assert M3DParameters().with_overrides(feol_overhead=0.5).feol_overhead == 0.5


class TestBandwidthParameters:
    def test_mcm_gpu_anchor(self):
        bw = BandwidthConstraintParameters()
        assert bw.degradation_at_half_bw == pytest.approx(0.20)
        assert bw.invalid_bw_ratio == pytest.approx(0.5)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ParameterError):
            BandwidthConstraintParameters(degradation_at_half_bw=0.0)
        with pytest.raises(ParameterError):
            BandwidthConstraintParameters(invalid_bw_ratio=0.0)
        with pytest.raises(ParameterError):
            BandwidthConstraintParameters(traffic_bytes_per_op=-1.0)
        with pytest.raises(ParameterError):
            BandwidthConstraintParameters(io_traffic_fraction=0.0)


class TestParameterSet:
    def test_default_construction(self):
        params = ParameterSet.default()
        assert params.node("7nm").name == "7nm"
        assert params.integration_spec("emib").name == "emib"
        assert params.grid("taiwan").name == "taiwan"

    def test_tables_default_to_the_shared_ones(self):
        """Tables never change in place, so every set may share them."""
        params = ParameterSet(wafer_diameter_mm=200.0)
        assert params.technology is DEFAULT_TECHNOLOGY_TABLE
        assert params.integration is DEFAULT_INTEGRATION_TABLE
        assert params.bonding is DEFAULT_BONDING_TABLE
        assert params.packaging is DEFAULT_PACKAGING_TABLE
        assert params.grids is DEFAULT_GRID_TABLE
        assert ParameterSet() == ParameterSet.default()

    def test_wafer_diameter_range(self):
        with pytest.raises(ParameterError):
            ParameterSet(wafer_diameter_mm=50.0)

    def test_with_wafer_diameter(self):
        params = ParameterSet.default().with_wafer_diameter(450.0)
        assert params.wafer_diameter_mm == 450.0

    def test_with_beol_aware(self):
        assert not ParameterSet.default().with_beol_aware(False).beol_aware

    def test_with_bandwidth(self):
        params = ParameterSet.default().with_bandwidth(enabled=False)
        assert not params.bandwidth.enabled

    def test_with_node_override_isolated(self):
        base = ParameterSet.default()
        swept = base.with_node_override("7nm", defect_density_per_cm2=0.4)
        assert swept.node("7nm").defect_density_per_cm2 == 0.4
        assert base.node("7nm").defect_density_per_cm2 != 0.4

    def test_with_integration_override(self):
        swept = ParameterSet.default().with_integration_override(
            "emib", data_rate_gbps=6.8
        )
        assert swept.integration_spec("emib").data_rate_gbps == 6.8

    def test_with_substrate_override(self):
        swept = ParameterSet.default().with_substrate(die_gap_mm=0.5)
        assert swept.substrate.die_gap_mm == 0.5

    def test_with_m3d_override(self):
        swept = ParameterSet.default().with_m3d(feol_overhead=0.6)
        assert swept.m3d.feol_overhead == 0.6
