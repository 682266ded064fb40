"""Process-node database tests (Table 2's foundry parameters)."""

import pytest

from repro.config.parameters import DEFAULT_PARAMETERS
from repro.config.technology import (
    DEFAULT_TECHNOLOGY_TABLE,
    ProcessNode,
    TechnologyTable,
)
from repro.errors import ParameterError, UnknownTechnologyError

NODE_NAMES = [n.name for n in DEFAULT_TECHNOLOGY_TABLE]


def node(name: str) -> ProcessNode:
    return DEFAULT_TECHNOLOGY_TABLE.get(name)


class TestTableLookup:
    def test_all_paper_nodes_present(self):
        """Table 2: process range 3–28 nm (plus interposer extras)."""
        for name in ("3nm", "5nm", "7nm", "10nm", "12nm", "14nm", "16nm",
                     "20nm", "22nm", "28nm"):
            assert name in DEFAULT_TECHNOLOGY_TABLE

    def test_flexible_spellings(self):
        table = DEFAULT_TECHNOLOGY_TABLE
        assert table.get("7nm") is table.get("7 nm")
        assert table.get(7) is table.get("7nm")
        assert table.get(7.0) is table.get("7")

    def test_unknown_node_raises(self):
        with pytest.raises(UnknownTechnologyError):
            DEFAULT_TECHNOLOGY_TABLE.get("1nm")

    def test_contains(self):
        assert "7nm" in DEFAULT_TECHNOLOGY_TABLE
        assert "9nm" not in DEFAULT_TECHNOLOGY_TABLE

    def test_iteration_yields_each_node_once(self):
        names = [n.name for n in DEFAULT_TECHNOLOGY_TABLE]
        assert len(set(names)) == len(names) == 12

    def test_get_passthrough(self):
        record = node("7nm")
        assert DEFAULT_TECHNOLOGY_TABLE.get(record) is record


class TestParameterRanges:
    """Defaults must respect the published Table 2 ranges."""

    def test_epa_range(self):
        for n in DEFAULT_TECHNOLOGY_TABLE:
            assert 0.3 <= n.epa_kwh_per_cm2 <= 2.75

    def test_gpa_mpa_range(self):
        for n in DEFAULT_TECHNOLOGY_TABLE:
            assert 0.0 < n.gpa_kg_per_cm2 <= 0.5
            assert 0.0 < n.mpa_kg_per_cm2 <= 0.5

    def test_rent_exponent_range(self):
        for n in DEFAULT_TECHNOLOGY_TABLE:
            assert 0.6 <= n.rent_exponent <= 0.8

    def test_fanout_range(self):
        for n in DEFAULT_TECHNOLOGY_TABLE:
            assert 1.0 <= n.fanout <= 5.0

    def test_tsv_diameter_range(self):
        """Table 2: D_TSV 0.3–25 µm."""
        for n in DEFAULT_TECHNOLOGY_TABLE:
            assert 0.3 <= n.tsv_diameter_um <= 25.0

    def test_miv_below_0_6_um(self):
        """MIVs are < 0.6 µm (Sec. 2.1.1)."""
        for n in DEFAULT_TECHNOLOGY_TABLE:
            assert n.miv_diameter_um <= 0.6

    def test_beta_range(self):
        """β 450–850 (Table 2) for logic nodes."""
        for n in DEFAULT_TECHNOLOGY_TABLE:
            assert 450.0 <= n.beta <= 850.0


class TestMonotonicTrends:
    """Finer nodes are more carbon-intensive and defect-prone."""

    ORDER = ["28nm", "22nm", "20nm", "16nm", "14nm", "12nm", "10nm",
             "7nm", "5nm", "3nm"]

    def test_epa_non_decreasing_towards_finer_nodes(self):
        values = [node(n).epa_kwh_per_cm2 for n in self.ORDER]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_defect_density_non_decreasing(self):
        values = [node(n).defect_density_per_cm2 for n in self.ORDER]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_max_beol_non_decreasing(self):
        values = [node(n).max_beol_layers for n in self.ORDER]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestDerivedQuantities:
    def test_wire_pitch_is_3_6_lambda(self):
        assert node("7nm").wire_pitch_nm == pytest.approx(3.6 * 7.0)

    def test_gate_area_orin_calibration(self):
        """17 B gates at 7 nm ≈ 458 mm² (NVIDIA ORIN die size)."""
        area_mm2 = 17e9 * node("7nm").gate_area_um2 / 1e6
        assert area_mm2 == pytest.approx(458.0, rel=0.01)

    def test_epa_split_reassembles(self):
        n = node("7nm")
        epa_feol, epa_per_layer, _, _ = n.beol_split
        reassembled = epa_feol + n.max_beol_layers * epa_per_layer
        assert reassembled == pytest.approx(n.epa_kwh_per_cm2)

    def test_gpa_split_reassembles(self):
        n = node("14nm")
        _, _, gpa_feol, gpa_per_layer = n.beol_split
        reassembled = gpa_feol + n.max_beol_layers * gpa_per_layer
        assert reassembled == pytest.approx(n.gpa_kg_per_cm2)

    def test_interposer_node_is_beol_only_cheap(self):
        """A passive interposer has no FEOL: far cheaper than logic."""
        assert (node("interposer").epa_kwh_per_cm2
                < node("28nm").epa_kwh_per_cm2)


class TestEveryNode:
    """Eq. 6's FEOL/BEOL split holds for every row of the node table."""

    @pytest.mark.parametrize("name", NODE_NAMES)
    def test_beol_split_reassembles_at_full_stack(self, name):
        n = node(name)
        epa_feol, epa_per_layer, gpa_feol, gpa_per_layer = n.beol_split
        layers = n.max_beol_layers
        assert epa_feol + layers * epa_per_layer == pytest.approx(
            n.epa_kwh_per_cm2, rel=1e-12
        )
        assert gpa_feol + layers * gpa_per_layer == pytest.approx(
            n.gpa_kg_per_cm2, rel=1e-12
        )
        assert epa_feol == n.epa_kwh_per_cm2 * (1.0 - n.beol_carbon_fraction)

    @pytest.mark.parametrize("name", NODE_NAMES)
    def test_override_recomputes_beol_split(self, name):
        """A perturbed record never reuses its base's cached split."""
        base = node(name)
        assert base.beol_split  # fill the base record's cache first
        params = DEFAULT_PARAMETERS.with_node_override(
            name, epa_kwh_per_cm2=base.epa_kwh_per_cm2 * 1.25,
            gpa_kg_per_cm2=base.gpa_kg_per_cm2 * 0.5,
        )
        for perturbed in (
            params.node(name),
            base.with_overrides(epa_kwh_per_cm2=base.epa_kwh_per_cm2 * 1.25,
                                gpa_kg_per_cm2=base.gpa_kg_per_cm2 * 0.5),
        ):
            fraction = base.beol_carbon_fraction
            assert perturbed.beol_split == (
                perturbed.epa_kwh_per_cm2 * (1.0 - fraction),
                perturbed.epa_kwh_per_cm2 * fraction / base.max_beol_layers,
                perturbed.gpa_kg_per_cm2 * (1.0 - fraction),
                perturbed.gpa_kg_per_cm2 * fraction / base.max_beol_layers,
            )
            assert perturbed.beol_split != base.beol_split


class TestValidationAndOverrides:
    def test_out_of_range_epa_rejected(self):
        with pytest.raises(ParameterError):
            node("7nm").with_overrides(epa_kwh_per_cm2=100.0)

    def test_bad_rent_exponent_rejected(self):
        with pytest.raises(ParameterError):
            node("7nm").with_overrides(rent_exponent=1.5)

    def test_zero_beol_rejected(self):
        with pytest.raises(ParameterError):
            node("7nm").with_overrides(max_beol_layers=0)

    def test_override_returns_new_record(self):
        original = node("7nm")
        modified = original.with_overrides(defect_density_per_cm2=0.2)
        assert modified.defect_density_per_cm2 == 0.2
        assert original.defect_density_per_cm2 != 0.2

    def test_table_override_is_isolated(self):
        table = TechnologyTable()
        modified = table.with_record(
            table.get("7nm").with_overrides(defect_density_per_cm2=0.3)
        )
        assert modified.get("7nm").defect_density_per_cm2 == 0.3
        assert table.get("7nm").defect_density_per_cm2 != 0.3
        assert [n.name for n in modified] == [n.name for n in table]

    def test_with_record_adds_a_node_to_a_copy(self):
        table = TechnologyTable()
        custom = ProcessNode(
            name="7nm_custom", feature_nm=7.0, beta=600.0,
            epa_kwh_per_cm2=1.52, gpa_kg_per_cm2=0.18,
            mpa_kg_per_cm2=0.5, defect_density_per_cm2=0.139,
            alpha=10.0, max_beol_layers=13,
        )
        extended = table.with_record(custom)
        assert extended.get(" 7NM_custom ") is custom
        assert "7nm_custom" in extended
        assert "7nm_custom" not in table
        assert [n.name for n in extended] == (
            [n.name for n in table] + ["7nm_custom"]
        )

    def test_builds_from_records(self):
        table = TechnologyTable([node("7nm"), node("28nm")])
        assert [n.name for n in table] == ["7nm", "28nm"]
        assert table.get(28) is node("28nm")
        with pytest.raises(UnknownTechnologyError, match="known nodes: 28nm, 7nm$"):
            table.get("5nm")
