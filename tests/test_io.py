"""Serialization tests: designs ↔ JSON, results → CSV/JSON."""

import csv
import json

import pytest

from repro import CarbonModel, ChipDesign, ParameterSet, Workload
from repro.config.integration import AssemblyFlow, StackingStyle
from repro.core.design import Die, DieKind, PackageSpec
from repro.errors import DesignError
from repro.io import (
    design_from_dict,
    design_to_dict,
    die_from_dict,
    die_to_dict,
    drive_study_rows,
    load_design,
    report_row,
    save_design,
    table5_rows,
    write_csv,
    write_json,
)

PARAMS = ParameterSet.default()


def full_design() -> ChipDesign:
    return ChipDesign(
        name="roundtrip",
        dies=(
            Die("base", "14nm", area_mm2=92.0, kind=DieKind.MEMORY,
                workload_share=0.0, beol_layers=6, yield_override=0.9),
            Die("logic", "7nm", gate_count=8.5e9, workload_share=1.0,
                efficiency_tops_per_w=2.74),
        ),
        integration="micro_3d",
        stacking=StackingStyle.F2F,
        assembly=AssemblyFlow.D2W,
        package=PackageSpec("pop_mobile", area_mm2=144.0),
        throughput_tops=254.0,
    )


class TestDesignRoundtrip:
    def test_die_roundtrip(self):
        for die in full_design().dies:
            assert die_from_dict(die_to_dict(die)) == die

    def test_design_roundtrip(self):
        design = full_design()
        assert design_from_dict(design_to_dict(design)) == design

    def test_defaults_omitted(self):
        design = ChipDesign.planar_2d("plain", "7nm", gate_count=1e9)
        data = design_to_dict(design)
        assert "stacking" not in data
        assert "assembly" not in data
        assert "throughput_tops" not in data
        assert "kind" not in data["dies"][0]

    def test_roundtrip_via_file(self, tmp_path):
        design = full_design()
        path = tmp_path / "design.json"
        save_design(design, path)
        assert load_design(path) == design
        # file is actual JSON
        json.loads(path.read_text())

    def test_missing_name_rejected(self):
        with pytest.raises(DesignError):
            design_from_dict({"dies": [{"name": "d", "node": "7nm",
                                        "area_mm2": 10.0}]})

    def test_missing_dies_rejected(self):
        with pytest.raises(DesignError):
            design_from_dict({"name": "x", "dies": []})

    def test_die_missing_node_rejected(self):
        with pytest.raises(DesignError):
            die_from_dict({"name": "d"})

    def test_deserialized_design_evaluates(self):
        design = design_from_dict(design_to_dict(full_design()))
        report = CarbonModel(design, PARAMS).evaluate()
        assert report.embodied_kg > 0


class TestResultRows:
    @pytest.fixture(scope="class")
    def report(self, orin_2d):
        return CarbonModel(orin_2d, PARAMS).evaluate(
            Workload.autonomous_vehicle()
        )

    def test_report_row_columns(self, report):
        row = report_row(report)
        assert set(row) == set(
            __import__("repro.io.results", fromlist=["REPORT_COLUMNS"])
            .REPORT_COLUMNS
        )

    def test_report_row_consistency(self, report):
        row = report_row(report)
        assert row["total_kg"] == pytest.approx(
            row["embodied_kg"] + row["operational_kg"]
        )
        assert row["embodied_kg"] == pytest.approx(
            row["die_kg"] + row["bonding_kg"] + row["packaging_kg"]
            + row["interposer_kg"]
        )

    def test_drive_rows(self):
        from repro.studies.drive import drive_study

        result = drive_study("homogeneous", devices=["ORIN"])
        rows = drive_study_rows(result)
        assert len(rows) == 9
        assert {r["device"] for r in rows} == {"ORIN"}
        assert all(r["approach"] == "homogeneous" for r in rows)

    def test_table5_rows(self):
        from repro.studies.decision import table5_study

        rows = table5_rows(table5_study())
        assert len(rows) == 5
        si = next(r for r in rows if r["option"] == "Si_int")
        assert si["tc_years"] is None  # ∞ encodes as null
        assert si["regime"] == "never"

    def test_csv_roundtrip(self, tmp_path, report):
        rows = [report_row(report)]
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as handle:
            back = list(csv.DictReader(handle))
        assert len(back) == 1
        assert float(back[0]["total_kg"]) == pytest.approx(
            rows[0]["total_kg"]
        )

    def test_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "empty.csv")

    def test_json_writer(self, tmp_path, report):
        path = tmp_path / "rows.json"
        write_json([report_row(report)], path)
        data = json.loads(path.read_text())
        assert data[0]["design"] == report.design_name


class TestMalformedDesigns:
    """Bad JSON values must raise typed DesignErrors, never tracebacks."""

    def base(self) -> dict:
        return {
            "name": "chip",
            "integration": "hybrid_3d",
            "stacking": "f2f",
            "assembly": "d2w",
            "dies": [
                {"name": "top", "node": "7nm", "gate_count": 8.5e9},
                {"name": "bottom", "node": "7nm", "gate_count": 8.5e9},
            ],
        }

    def test_unknown_stacking_style(self):
        data = self.base()
        data["stacking"] = "sideways"
        with pytest.raises(DesignError, match="stacking.*known"):
            design_from_dict(data)

    def test_unknown_assembly_flow(self):
        data = self.base()
        data["assembly"] = "telekinesis"
        with pytest.raises(DesignError, match="assembly.*known"):
            design_from_dict(data)

    def test_unknown_die_kind(self):
        data = self.base()
        data["dies"][0]["kind"] = "quantum"
        with pytest.raises(DesignError, match="die kind.*known"):
            design_from_dict(data)

    def test_non_string_integration(self):
        data = self.base()
        data["integration"] = 3
        with pytest.raises(DesignError, match="integration"):
            design_from_dict(data)

    def test_non_object_design(self):
        with pytest.raises(DesignError, match="object"):
            design_from_dict(["not", "a", "design"])

    def test_non_array_dies(self):
        data = self.base()
        data["dies"] = "two of them"
        with pytest.raises(DesignError, match="array"):
            design_from_dict(data)

    def test_non_object_die(self):
        data = self.base()
        data["dies"][1] = 42
        with pytest.raises(DesignError, match="die record"):
            design_from_dict(data)

    def test_non_object_package(self):
        data = self.base()
        data["package"] = "fcbga"
        with pytest.raises(DesignError, match="package"):
            design_from_dict(data)

    def test_non_numeric_gate_count(self):
        data = self.base()
        data["dies"][0]["gate_count"] = "lots"
        with pytest.raises(DesignError, match="gate_count"):
            design_from_dict(data)

    def test_non_numeric_yield(self):
        data = self.base()
        data["dies"][0]["yield"] = "high"
        with pytest.raises(DesignError, match="yield"):
            design_from_dict(data)
