"""Bonding, packaging and substrate database tests."""

import pytest

from repro.config.bonding import (
    DEFAULT_BONDING_TABLE,
    BondingProcess,
    BondingTable,
)
from repro.config.integration import AssemblyFlow, BondingMethod
from repro.config.packaging import DEFAULT_PACKAGING_TABLE, PackageClass, PackagingTable
from repro.config.substrate import SubstrateParameters
from repro.errors import ParameterError, UnknownTechnologyError
from repro.studies.anchors import ANCHORS


class TestBondingTable:
    def test_all_3d_combinations_present(self):
        for method in (BondingMethod.MICRO_BUMP, BondingMethod.HYBRID):
            for flow in (AssemblyFlow.D2W, AssemblyFlow.W2W):
                assert DEFAULT_BONDING_TABLE.get(method, flow) is not None

    def test_c4_both_25d_flows(self):
        for flow in (AssemblyFlow.CHIP_FIRST, AssemblyFlow.CHIP_LAST):
            assert DEFAULT_BONDING_TABLE.get(BondingMethod.C4, flow)

    def test_none_method_rejected(self):
        with pytest.raises(ParameterError):
            DEFAULT_BONDING_TABLE.get(BondingMethod.NONE, AssemblyFlow.D2W)

    def test_unknown_combination_raises(self):
        with pytest.raises(UnknownTechnologyError):
            DEFAULT_BONDING_TABLE.get(BondingMethod.HYBRID, AssemblyFlow.CHIP_FIRST)

    def test_d2w_bond_yield_below_w2w(self):
        """Sec. 4.2: D2W's advanced bonding has lower per-bond yield."""
        for method in (BondingMethod.MICRO_BUMP, BondingMethod.HYBRID):
            d2w = DEFAULT_BONDING_TABLE.get(method, AssemblyFlow.D2W)
            w2w = DEFAULT_BONDING_TABLE.get(method, AssemblyFlow.W2W)
            assert d2w.bond_yield < w2w.bond_yield

    def test_lakefield_anchor_yields(self):
        """DESIGN.md §5: micro D2W 0.96, W2W 0.97 reproduce Sec. 4.2."""
        micro_d2w = DEFAULT_BONDING_TABLE.get(
            BondingMethod.MICRO_BUMP, AssemblyFlow.D2W
        )
        micro_w2w = DEFAULT_BONDING_TABLE.get(
            BondingMethod.MICRO_BUMP, AssemblyFlow.W2W
        )
        assert micro_d2w.bond_yield == pytest.approx(0.96)
        assert micro_w2w.bond_yield == pytest.approx(0.97)

    def test_c4_is_cheapest(self):
        """Mature flip-chip reflow costs far less than advanced bonding."""
        c4 = DEFAULT_BONDING_TABLE.get(BondingMethod.C4, AssemblyFlow.CHIP_LAST)
        hybrid = DEFAULT_BONDING_TABLE.get(BondingMethod.HYBRID, AssemblyFlow.D2W)
        micro = DEFAULT_BONDING_TABLE.get(
            BondingMethod.MICRO_BUMP, AssemblyFlow.D2W
        )
        assert c4.epa_kwh_per_cm2 < micro.epa_kwh_per_cm2
        assert c4.epa_kwh_per_cm2 < hybrid.epa_kwh_per_cm2

    def test_bad_yield_rejected(self):
        with pytest.raises(ParameterError):
            BondingProcess(BondingMethod.HYBRID, AssemblyFlow.D2W, 1.0, 1.5)

    def test_bad_epa_rejected(self):
        with pytest.raises(ParameterError):
            BondingProcess(BondingMethod.HYBRID, AssemblyFlow.D2W, 9.0, 0.95)

    def test_override_isolated(self):
        table = BondingTable()
        key = (BondingMethod.HYBRID, AssemblyFlow.D2W)
        modified = table.with_record(
            table.get(key).with_overrides(bond_yield=0.5)
        )
        assert modified.get(key).bond_yield == 0.5
        assert table.get(key).bond_yield != 0.5
        assert list(modified) != list(table)
        assert [(p.method, p.flow) for p in modified] == (
            [(p.method, p.flow) for p in table]
        )

    def test_with_record_adds_a_process_to_a_copy(self):
        table = BondingTable()
        key = (BondingMethod.HYBRID, AssemblyFlow.CHIP_LAST)
        process = BondingProcess(*key, 0.8, 0.98)
        extended = table.with_record(process)
        assert extended.get(key) is process
        assert key in extended
        assert key not in table
        assert list(extended) == list(table) + [process]

    def test_one_key_or_its_parts(self):
        key = (BondingMethod.C4, AssemblyFlow.CHIP_LAST)
        record = DEFAULT_BONDING_TABLE.get(key)
        assert DEFAULT_BONDING_TABLE.get(*key) is record
        assert DEFAULT_BONDING_TABLE.get(record) is record
        assert (BondingMethod.C4, AssemblyFlow.NA) not in DEFAULT_BONDING_TABLE

    KNOWN = (
        "known: (c4,chip_first), (c4,chip_last), (c4,d2w), (c4,w2w), "
        "(hybrid,d2w), (hybrid,w2w), (micro,d2w), (micro,w2w)"
    )

    @pytest.mark.parametrize("key, shown", [
        ("x", "'x'"),
        (("hybrid", "chip_first"), "(hybrid, chip_first)"),
        (5, "5"),
    ])
    def test_a_key_of_no_process_is_absent_and_unknown(self, key, shown):
        assert key not in DEFAULT_BONDING_TABLE
        with pytest.raises(UnknownTechnologyError) as info:
            DEFAULT_BONDING_TABLE.get(key)
        assert str(info.value) == (
            f"no bonding process for {shown}; {self.KNOWN}"
        )

    def test_a_none_method_key_is_absent(self):
        for key in ((BondingMethod.NONE, AssemblyFlow.D2W), ("none", "w2w")):
            assert key not in DEFAULT_BONDING_TABLE
            with pytest.raises(ParameterError, match="BondingMethod.NONE"):
                DEFAULT_BONDING_TABLE.get(key)

    def test_value_spellings_find_the_process(self):
        record = DEFAULT_BONDING_TABLE.get("hybrid", "d2w")
        assert record is DEFAULT_BONDING_TABLE.get(
            BondingMethod.HYBRID, AssemblyFlow.D2W
        )
        assert ("hybrid", "d2w") in DEFAULT_BONDING_TABLE


class TestPackagingTable:
    def test_builtin_classes(self):
        for name in ("fcbga", "server_mcm", "pop_mobile", "fowlp"):
            assert DEFAULT_PACKAGING_TABLE.get(name) is not None

    def test_unknown_class_raises(self):
        with pytest.raises(UnknownTechnologyError):
            DEFAULT_PACKAGING_TABLE.get("wirebond_dip")

    def test_linear_area_model(self):
        package = PackageClass("test", 0.05, 2.0, area_margin_mm2=10.0)
        assert package.package_area_mm2(100.0) == pytest.approx(210.0)

    def test_scale_at_least_one(self):
        """Table 2: s_package ≥ 1."""
        with pytest.raises(ParameterError):
            PackageClass("bad", 0.05, 0.9)

    def test_epyc_package_calibration(self):
        """server_mcm scale maps EPYC silicon to its SP3 body (Sec. 4.1)."""
        package = DEFAULT_PACKAGING_TABLE.get("server_mcm")
        silicon = 4 * 74.0 + 416.0
        assert package.package_area_mm2(silicon) == pytest.approx(
            58.5 * 75.4, rel=0.01
        )

    def test_packaging_cpa_reproduces_epyc_3_47kg(self):
        """CPA × SP3 area ≈ the paper's 3.47 kg packaging footprint."""
        package = DEFAULT_PACKAGING_TABLE.get("server_mcm")
        kg = package.cpa_kg_per_cm2 * (58.5 * 75.4) / 100.0
        assert kg == pytest.approx(ANCHORS["epyc.packaging_kg"].paper, rel=0.01)

    def test_negative_area_rejected(self):
        with pytest.raises(ParameterError):
            DEFAULT_PACKAGING_TABLE.get("fcbga").package_area_mm2(-1.0)

    def test_override_isolated(self):
        table = PackagingTable()
        modified = table.with_record(
            table.get("fcbga").with_overrides(area_scale=9.0)
        )
        assert modified.get("FCBGA").area_scale == 9.0
        assert table.get("fcbga").area_scale != 9.0
        assert [p.name for p in modified] == [p.name for p in table]
        assert "fcbga" in modified
        assert "wirebond_dip" not in modified


class TestSubstrateParameters:
    def test_defaults_in_table2_ranges(self):
        sub = SubstrateParameters()
        assert sub.si_interposer_scale >= 1.0
        assert sub.emib_scale >= 1.0
        assert sub.rdl_scale >= 1.0
        assert 0.5 <= sub.die_gap_mm <= 2.0

    def test_scale_below_one_rejected(self):
        with pytest.raises(ParameterError):
            SubstrateParameters(si_interposer_scale=0.5)

    def test_die_gap_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            SubstrateParameters(die_gap_mm=10.0)

    def test_bad_yield_rejected(self):
        with pytest.raises(ParameterError):
            SubstrateParameters(rdl_yield=0.0)

    def test_override(self):
        sub = SubstrateParameters().with_overrides(die_gap_mm=2.0)
        assert sub.die_gap_mm == 2.0

    def test_rdl_spans_package(self):
        """Sec. 5.1: InFO substrates are large — scale ≫ EMIB's bridge."""
        sub = SubstrateParameters()
        assert sub.rdl_scale > 5 * sub.emib_scale / 2
        assert sub.rdl_yield < 0.95
