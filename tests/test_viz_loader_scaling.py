"""Tests for the viz, parameter-loader and node-scaling extensions."""

import json

import pytest

from repro import CarbonModel, ChipDesign, ParameterSet, Workload
from repro.config.loader import (
    SCHEMA_VERSION,
    load_parameters,
    parameters_from_dict,
    parameters_to_dict,
    save_parameters,
)
from repro.errors import ParameterError
from repro.studies.scaling import (
    SCALING_NODES,
    format_scaling_table,
    node_scaling_study,
)
from repro.viz import grouped_comparison, stacked_bars

PARAMS = ParameterSet.default()
WL = Workload.autonomous_vehicle()


class TestStackedBars:
    @pytest.fixture(scope="class")
    def reports(self, orin_2d):
        designs = [orin_2d, ChipDesign.homogeneous_split(orin_2d, "m3d")]
        return [CarbonModel(d, PARAMS).evaluate(WL) for d in designs]

    def test_renders_all_reports(self, reports):
        text = stacked_bars(reports)
        for report in reports:
            assert report.design_name in text

    def test_legend_present(self, reports):
        text = stacked_bars(reports)
        assert "#=die" in text and ".=operational" in text

    def test_invalid_marked(self, orin_2d):
        mcm = ChipDesign.homogeneous_split(orin_2d, "mcm")
        report = CarbonModel(mcm, PARAMS).evaluate(WL)
        assert "x INVALID" in stacked_bars([report])

    def test_larger_total_longer_bar(self, reports):
        lines = stacked_bars(reports).splitlines()
        bar_2d = lines[0].split("|")[1]
        bar_m3d = lines[1].split("|")[1]
        assert bar_2d.count("#") + bar_2d.count(".") > (
            bar_m3d.count("#") + bar_m3d.count(".")
        )

    def test_custom_labels(self, reports):
        text = stacked_bars(reports, labels=["a", "b"])
        assert text.startswith("a")

    def test_rejects_bad_inputs(self, reports):
        with pytest.raises(ParameterError):
            stacked_bars([])
        with pytest.raises(ParameterError):
            stacked_bars(reports, width=2)
        with pytest.raises(ParameterError):
            stacked_bars(reports, labels=["only_one"])


class TestGroupedComparison:
    def test_grouped_scales(self):
        text = grouped_comparison([("LCA", 26.1), ("ACT+", 11.5)])
        lines = text.splitlines()
        assert lines[0].count("#") > lines[1].count("#")

    def test_grouped_rejects_empty(self):
        with pytest.raises(ParameterError):
            grouped_comparison([])


class TestParameterLoader:
    def test_dict_roundtrip_preserves_evaluation(self, orin_2d):
        restored = parameters_from_dict(parameters_to_dict(PARAMS))
        a = CarbonModel(orin_2d, PARAMS).embodied().total_kg
        b = CarbonModel(orin_2d, restored).embodied().total_kg
        assert a == pytest.approx(b)

    def test_file_roundtrip(self, tmp_path, orin_2d):
        path = tmp_path / "calibration.json"
        save_parameters(PARAMS, path)
        restored = load_parameters(path)
        a = CarbonModel(orin_2d, PARAMS).embodied().total_kg
        b = CarbonModel(orin_2d, restored).embodied().total_kg
        assert a == pytest.approx(b)
        json.loads(path.read_text())  # valid JSON on disk

    def test_roundtrip_preserves_tables(self):
        restored = parameters_from_dict(parameters_to_dict(PARAMS))
        for table in ("technology", "integration", "bonding", "packaging",
                      "grids"):
            assert list(getattr(restored, table)) == list(getattr(PARAMS, table))
        assert restored.node("7nm") == PARAMS.node("7nm")
        assert restored.integration_spec("emib") == (
            PARAMS.integration_spec("emib")
        )

    def test_modified_parameters_survive(self, tmp_path):
        modified = PARAMS.with_node_override(
            "7nm", defect_density_per_cm2=0.42
        ).with_bandwidth(traffic_bytes_per_op=0.2)
        path = tmp_path / "mod.json"
        save_parameters(modified, path)
        restored = load_parameters(path)
        assert restored.node("7nm").defect_density_per_cm2 == 0.42
        assert restored.bandwidth.traffic_bytes_per_op == 0.2

    def test_schema_version_checked(self):
        data = parameters_to_dict(PARAMS)
        data["schema_version"] = 99
        with pytest.raises(ParameterError):
            parameters_from_dict(data)

    def test_schema_version_written(self):
        assert parameters_to_dict(PARAMS)["schema_version"] == SCHEMA_VERSION

    def test_corrupt_record_rejected(self):
        data = parameters_to_dict(PARAMS)
        data["nodes"][0]["defect_density_per_cm2"] = -1.0
        with pytest.raises(ParameterError):
            parameters_from_dict(data)


class TestNodeScaling:
    @pytest.fixture(scope="class")
    def points(self):
        return node_scaling_study(gate_count=2.0e9)

    def test_all_nodes_present(self, points):
        assert [p.node for p in points] == list(SCALING_NODES)

    def test_carbon_per_cm2_rises_towards_finer_nodes(self, points):
        values = [p.carbon_per_cm2_kg for p in points]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_density_rises(self, points):
        values = [p.gate_density_m_per_mm2 for p in points]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_carbon_per_gate_falls(self, points):
        """Density (and yield of smaller dies) beats per-area intensity."""
        values = [p.carbon_per_bgate_kg for p in points]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_reference_design_consistent(self, points):
        for p in points:
            assert p.reference_design_kg == pytest.approx(
                p.carbon_per_bgate_kg * 2.0
            )

    def test_format(self, points):
        text = format_scaling_table(points)
        assert "kg/Bgate" in text and "28nm" in text

    def test_rejects_bad_gate_count(self):
        with pytest.raises(ParameterError):
            node_scaling_study(gate_count=0.0)
