"""Case-study framework tests (validation, DRIVE, Table 5, sweeps)."""

import pytest

from repro import ParameterSet, Workload
from repro.errors import DesignError, ParameterError
from repro.studies.decision import TABLE5_OPTIONS, table5_study
from repro.studies.drive import (
    FIG5_OPTIONS,
    drive_2d_design,
    drive_design,
    drive_study,
)
from repro.studies.sweep import (
    format_sweep,
    sweep_die_counts,
    sweep_fab_locations,
    sweep_integrations,
    sweep_wafer_diameters,
)
from repro.studies.validation import (
    epyc_2d_equivalent_design,
    epyc_7452_design,
    lakefield_design,
)

PARAMS = ParameterSet.default()


class TestValidationDesigns:
    def test_epyc_structure(self):
        design = epyc_7452_design()
        assert design.die_count == 5
        assert design.integration == "mcm"
        nodes = {die.node for die in design.dies}
        assert nodes == {"7nm", "14nm"}
        design.validate(PARAMS)

    def test_epyc_package_area(self):
        assert epyc_7452_design().package.area_mm2 == pytest.approx(
            58.5 * 75.4
        )

    def test_epyc_2d_equivalent_total_area(self):
        design = epyc_2d_equivalent_design()
        assert design.dies[0].area_mm2 == pytest.approx(4 * 74.0 + 416.0)

    def test_lakefield_structure(self):
        design = lakefield_design()
        assert design.die_count == 2
        assert design.integration == "micro_3d"
        assert design.dies[0].area_mm2 == 92.0  # base die at the bottom
        assert design.dies[1].area_mm2 == 82.0
        design.validate(PARAMS)


class TestDriveDesigns:
    def test_2d_design_from_table4(self):
        design = drive_2d_design("ORIN")
        assert design.dies[0].gate_count == 17e9
        assert design.throughput_tops == 254.0
        assert design.dies[0].node == "7nm"

    def test_unknown_device_rejected(self):
        with pytest.raises(ParameterError):
            drive_2d_design("PEGASUS")

    def test_option_produces_validating_design(self):
        for label, _, _ in FIG5_OPTIONS:
            design = drive_design("ORIN", label, "homogeneous")
            design.validate(PARAMS)

    def test_unknown_option_rejected(self):
        with pytest.raises(ParameterError):
            drive_design("ORIN", "CoWoS-Z")

    def test_unknown_approach_rejected(self):
        with pytest.raises(ParameterError):
            drive_design("ORIN", "EMIB", approach="diagonal")

    def test_info_flavours_differ(self):
        chip_first = drive_design("ORIN", "InFO_1")
        chip_last = drive_design("ORIN", "InFO_2")
        assert chip_first.assembly != chip_last.assembly

    def test_heterogeneous_uses_28nm(self):
        design = drive_design("ORIN", "Hybrid", "heterogeneous")
        assert {die.node for die in design.dies} == {"7nm", "28nm"}


class TestDriveStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return drive_study("homogeneous", devices=["ORIN"])

    def test_grid_shape(self, study):
        assert len(study.cells) == len(FIG5_OPTIONS)
        assert study.devices() == ["ORIN"]

    def test_cell_lookup(self, study):
        cell = study.cell("ORIN", "2D")
        assert cell.report.integration == "2d"

    def test_missing_cell_raises(self, study):
        with pytest.raises(ParameterError):
            study.cell("ORIN", "CoWoS")

    def test_table_renders(self, study):
        table = study.format_table()
        assert "Fig. 5" in table
        assert "ORIN" in table
        assert "NO" in table  # MCM/InFO invalid

    def test_custom_workload(self):
        light = Workload.from_activity("light", 10.0, 0.1, 10.0)
        study = drive_study("homogeneous", workload=light, devices=["ORIN"])
        heavy = drive_study("homogeneous", devices=["ORIN"])
        assert (study.cell("ORIN", "2D").report.operational_kg
                < heavy.cell("ORIN", "2D").report.operational_kg)


class TestTable5Study:
    @pytest.fixture(scope="class")
    def result(self):
        return table5_study()

    def test_all_options_present(self, result):
        assert {row.option for row in result.rows} == set(TABLE5_OPTIONS)

    def test_all_alternatives_valid(self, result):
        """Table 5 only contains the five valid designs."""
        for row in result.rows:
            assert row.report.valid, row.option

    def test_baseline_is_2d(self, result):
        assert result.baseline.integration == "2d"

    def test_unknown_row_raises(self, result):
        with pytest.raises(KeyError):
            result.row("CoWoS")


class TestSweeps:
    def test_integration_sweep_covers_all(self, orin_2d):
        points = sweep_integrations(orin_2d)
        assert len(points) == 8
        assert points[0].label == "2d"

    def test_integration_sweep_subset(self, orin_2d):
        points = sweep_integrations(orin_2d, ["2d", "m3d"])
        assert [p.label for p in points] == ["2d", "m3d"]

    def test_die_count_sweep_monotone_labels(self, orin_2d):
        points = sweep_die_counts(orin_2d, "mcm", [2, 3, 4])
        assert [p.label for p in points] == ["2 dies", "3 dies", "4 dies"]

    def test_die_count_respects_max_dies(self, orin_2d):
        points = sweep_die_counts(orin_2d, "m3d", [2, 3, 4])
        assert len(points) == 1  # M3D caps at 2 tiers

    def test_die_count_sweep_past_every_limit_is_refused(self, orin_2d):
        with pytest.raises(DesignError, match="allow no m3d split"):
            sweep_die_counts(orin_2d, "m3d", [3, 4])

    def test_die_count_rejects_2d(self, orin_2d):
        with pytest.raises(ParameterError):
            sweep_die_counts(orin_2d, "2d")

    def test_wafer_sweep_monotone(self, orin_2d):
        points = sweep_wafer_diameters(orin_2d, [200.0, 300.0, 450.0])
        totals = [p.report.embodied_kg for p in points]
        assert totals[0] > totals[1] > totals[2]

    def test_fab_location_sweep_monotone(self, orin_2d):
        points = sweep_fab_locations(orin_2d, ["iceland", "taiwan", "india"])
        totals = [p.report.embodied_kg for p in points]
        assert totals[0] < totals[1] < totals[2]

    def test_format_sweep(self, orin_2d):
        text = format_sweep(
            sweep_wafer_diameters(orin_2d, [300.0]), title="wafer"
        )
        assert "wafer" in text and "300 mm" in text


class TestEngineRoutedStudies:
    """drive_study / table5_study route through BatchEvaluator — the
    results must stay bit-identical to the per-design CarbonModel path."""

    def test_drive_study_matches_scalar_path(self):
        from repro.core.model import CarbonModel
        from repro.studies.drive import FIG5_OPTIONS, drive_design

        workload = Workload.autonomous_vehicle()
        result = drive_study(approach="homogeneous", devices=["ORIN"])
        assert len(result.cells) == len(FIG5_OPTIONS)
        for cell in result.cells:
            design = drive_design("ORIN", cell.option, "homogeneous")
            reference = CarbonModel(design, fab_location="taiwan").evaluate(
                workload
            )
            assert cell.report == reference

    def test_drive_study_shares_an_external_evaluator(self):
        from repro.engine import BatchEvaluator

        evaluator = BatchEvaluator()
        first = drive_study(approach="homogeneous", devices=["ORIN"],
                            evaluator=evaluator)
        points_after_first = evaluator.stats.points_evaluated
        second = drive_study(approach="homogeneous", devices=["ORIN"],
                             evaluator=evaluator)
        # The repeat is served entirely from the evaluator's memos.
        assert evaluator.stats.resolve_misses <= points_after_first
        assert [c.report for c in second.cells] == [
            c.report for c in first.cells
        ]

    def test_table5_matches_scalar_path(self):
        from repro.core.model import CarbonModel
        from repro.studies.decision import TABLE5_OPTIONS, table5_study
        from repro.studies.drive import drive_design

        workload = Workload.autonomous_vehicle()
        result = table5_study()
        baseline = CarbonModel(
            drive_design("ORIN", "2D"), fab_location="taiwan"
        ).evaluate(workload)
        assert result.baseline == baseline
        assert len(result.rows) == len(TABLE5_OPTIONS)
        for row in result.rows:
            design = drive_design("ORIN", row.option, approach="homogeneous")
            reference = CarbonModel(design, fab_location="taiwan").evaluate(
                workload
            )
            assert row.report == reference
