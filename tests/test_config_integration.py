"""Integration-technology database tests (Table 1 + Fig. 2)."""

import pytest

from repro.config.integration import (
    DEFAULT_INTEGRATION_TABLE,
    AssemblyFlow,
    BondingMethod,
    IntegrationSpec,
    IntegrationTable,
    StackingStyle,
    SubstrateKind,
)
from repro.errors import ParameterError, UnknownTechnologyError


def spec(name: str) -> IntegrationSpec:
    return DEFAULT_INTEGRATION_TABLE.get(name)


class TestCoverage:
    def test_all_paper_technologies_present(self):
        """Table 1: 3 commercial 3D + 4 2.5D technologies (+ 2D)."""
        for name in ("2d", "micro_3d", "hybrid_3d", "m3d",
                     "mcm", "info", "emib", "si_interposer"):
            assert name in DEFAULT_INTEGRATION_TABLE

    def test_family_partition(self):
        three_d = [s.name for s in DEFAULT_INTEGRATION_TABLE if s.is_3d]
        two_five = [s.name for s in DEFAULT_INTEGRATION_TABLE if s.is_2_5d]
        assert sorted(three_d) == ["hybrid_3d", "m3d", "micro_3d"]
        assert sorted(two_five) == ["emib", "info", "mcm", "si_interposer"]

    def test_aliases(self):
        table = DEFAULT_INTEGRATION_TABLE
        assert table.get("hybrid") is table.get("hybrid_3d")
        assert table.get("Si_int") is table.get("si_interposer")
        assert table.get("monolithic_3d") is table.get("m3d")
        assert table.get("micro-bump") is table.get("micro_3d")

    def test_unknown_raises(self):
        with pytest.raises(UnknownTechnologyError):
            DEFAULT_INTEGRATION_TABLE.get("cowos_z")


class TestFig2InterfacePhysics:
    """Data rates, densities, and energies transcribed from Fig. 2."""

    def test_mcm(self):
        s = spec("mcm")
        assert s.data_rate_gbps == 4.0
        assert s.io_density_per_mm_per_layer == 50.0
        assert 500.0 <= s.energy_per_bit_fj <= 2000.0

    def test_info(self):
        s = spec("info")
        assert s.data_rate_gbps == 4.0
        assert s.io_density_per_mm_per_layer == 100.0
        assert s.energy_per_bit_fj == 250.0

    def test_emib(self):
        s = spec("emib")
        assert s.data_rate_gbps == pytest.approx(3.4)
        assert 200.0 <= s.io_density_per_mm_per_layer <= 500.0
        assert s.energy_per_bit_fj == 150.0

    def test_si_interposer(self):
        s = spec("si_interposer")
        assert 3.2 <= s.data_rate_gbps <= 6.4
        assert s.io_density_per_mm_per_layer == 500.0
        assert s.energy_per_bit_fj == 120.0

    def test_micro_bump_pitch(self):
        s = spec("micro_3d")
        assert 10.0 <= s.connection_pitch_um <= 50.0
        assert s.energy_per_bit_fj == 140.0
        assert s.data_rate_gbps == 6.0

    def test_hybrid_pitch(self):
        s = spec("hybrid_3d")
        assert 1.0 <= s.connection_pitch_um <= 5.0
        assert s.data_rate_gbps == 5.0

    def test_m3d_miv(self):
        s = spec("m3d")
        assert s.connection_pitch_um <= 0.6
        assert s.energy_per_bit_fj <= 5.0
        assert s.data_rate_gbps == 15.0

    def test_interface_density_ordering(self):
        """Finer technologies supply more connections per mm."""
        assert (spec("mcm").io_density_per_mm_per_layer
                < spec("info").io_density_per_mm_per_layer
                < spec("emib").io_density_per_mm_per_layer
                <= spec("si_interposer").io_density_per_mm_per_layer)


class TestDeploymentRules:
    def test_io_power_rule(self):
        """Sec. 3.3: only 2.5D and micro-bump 3D pay interface power."""
        assert spec("micro_3d").io_power_counted
        for name in ("mcm", "info", "emib", "si_interposer"):
            assert spec(name).io_power_counted
        for name in ("2d", "hybrid_3d", "m3d"):
            assert not spec(name).io_power_counted

    def test_3d_matches_onchip_bandwidth(self):
        """Sec. 3.4 assumption: 3D ICs match 2D on-chip bandwidth."""
        for name in ("micro_3d", "hybrid_3d", "m3d"):
            assert spec(name).bandwidth_matches_2d
        for name in ("mcm", "info", "emib", "si_interposer"):
            assert not spec(name).bandwidth_matches_2d

    def test_m3d_two_tiers(self):
        assert spec("m3d").max_dies == 2

    def test_m3d_has_no_bond_step(self):
        assert spec("m3d").bonding is BondingMethod.NONE

    def test_2_5d_substrates(self):
        assert spec("mcm").substrate is SubstrateKind.ORGANIC
        assert spec("info").substrate is SubstrateKind.RDL
        assert spec("emib").substrate is SubstrateKind.EMIB_BRIDGE
        assert spec("si_interposer").substrate is SubstrateKind.SILICON_INTERPOSER

    def test_io_area_ratio_range(self):
        """Table 2: γ ∈ [0, 1]; only coarse interfaces need drivers."""
        assert spec("micro_3d").io_area_ratio > 0.0
        assert spec("hybrid_3d").io_area_ratio == 0.0
        assert spec("m3d").io_area_ratio == 0.0

    def test_interconnect_power_saving_ordering(self):
        """Kim DAC'21: M3D > hybrid > micro wire-shortening benefit."""
        assert (spec("m3d").interconnect_power_saving
                > spec("hybrid_3d").interconnect_power_saving
                > spec("micro_3d").interconnect_power_saving
                > spec("mcm").interconnect_power_saving)

    def test_gate_area_factor_ordering(self):
        assert (spec("m3d").gate_area_factor
                < spec("hybrid_3d").gate_area_factor
                < spec("micro_3d").gate_area_factor
                <= 1.0)

    def test_stacking_options(self):
        assert StackingStyle.F2F in spec("hybrid_3d").allowed_stacking
        assert spec("m3d").allowed_stacking == (StackingStyle.F2B,)

    def test_assembly_options(self):
        assert AssemblyFlow.D2W in spec("micro_3d").allowed_assembly
        assert AssemblyFlow.CHIP_FIRST in spec("info").allowed_assembly
        assert AssemblyFlow.CHIP_LAST in spec("info").allowed_assembly
        assert spec("emib").allowed_assembly == (AssemblyFlow.CHIP_LAST,)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError):
            spec("emib").with_overrides(data_rate_gbps=-1.0)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ParameterError):
            spec("emib").with_overrides(io_area_ratio=1.5)

    def test_bad_kappa_rejected(self):
        with pytest.raises(ParameterError):
            spec("m3d").with_overrides(interconnect_power_saving=0.9)

    def test_bad_gate_area_factor_rejected(self):
        with pytest.raises(ParameterError):
            spec("m3d").with_overrides(gate_area_factor=0.2)

    def test_override_isolated(self):
        table = IntegrationTable()
        modified = table.with_record(
            table.get("emib").with_overrides(data_rate_gbps=5.0)
        )
        assert modified.get("EMIB").data_rate_gbps == 5.0
        assert table.get("emib").data_rate_gbps == pytest.approx(3.4)
        assert [s.name for s in modified] == [s.name for s in table]

    def test_with_record_adds_a_spec_to_a_copy(self):
        table = IntegrationTable()
        custom = table.get("emib").with_overrides(name="cowos_l")
        extended = table.with_record(custom)
        assert extended.get("CoWoS-L") is custom
        assert "cowos_l" in extended
        assert "cowos_l" not in table
        assert list(extended) == list(table) + [custom]

    def test_family_flags_consistent(self):
        for s in DEFAULT_INTEGRATION_TABLE:
            flags = [s.is_2d, s.is_3d, s.is_2_5d]
            assert sum(flags) == 1
