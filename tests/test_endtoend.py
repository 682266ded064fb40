"""End-to-end integration tests across module boundaries."""

import json

import pytest

import repro
from repro import (
    CarbonModel,
    CarbonModelError,
    ChipDesign,
    DesignError,
    InvalidDesignError,
    ParameterError,
    ParameterSet,
    UnknownTechnologyError,
    Workload,
)
from repro.baselines import act_plus_estimate, first_order_estimate, lca_estimate
from repro.cli import main
from repro.config.loader import load_parameters, save_parameters
from repro.io import design_to_dict, report_row, save_design
from repro.studies.products import ryzen_5800x3d_design
from repro.viz import stacked_bars

PARAMS = ParameterSet.default()
WL = Workload.autonomous_vehicle()


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_error_hierarchy(self):
        for exc in (DesignError, ParameterError, InvalidDesignError,
                    UnknownTechnologyError):
            assert issubclass(exc, CarbonModelError)

    def test_subpackages_import(self):
        import repro.analysis
        import repro.baselines
        import repro.floorplan
        import repro.io
        import repro.rent
        import repro.studies
        import repro.viz


class TestJsonToCliToApi:
    def test_cli_matches_api(self, tmp_path, capsys, orin_2d):
        """The CLI's JSON output equals the direct API evaluation."""
        path = tmp_path / "orin.json"
        save_design(orin_2d, path)
        assert main(["evaluate", str(path), "--json"]) == 0
        cli_data = json.loads(capsys.readouterr().out)
        api = CarbonModel(orin_2d, PARAMS).evaluate(WL)
        assert cli_data["embodied_kg"] == pytest.approx(api.embodied_kg)
        assert cli_data["operational_kg"] == pytest.approx(
            api.operational_kg
        )
        assert cli_data["total_kg"] == pytest.approx(api.total_kg)

    def test_serialized_split_design_evaluates_identically(self, orin_2d):
        split = ChipDesign.homogeneous_split(orin_2d, "emib")
        clone = repro.io.design_from_dict(design_to_dict(split))
        a = CarbonModel(split, PARAMS).evaluate(WL)
        b = CarbonModel(clone, PARAMS).evaluate(WL)
        assert a.total_kg == pytest.approx(b.total_kg)
        assert a.valid == b.valid


class TestCalibrationFileFlow:
    def test_saved_calibration_drives_studies(self, tmp_path, orin_2d):
        """Modify → save → load → evaluate reproduces the modification."""
        modified = PARAMS.with_node_override(
            "7nm", defect_density_per_cm2=0.30
        )
        path = tmp_path / "cal.json"
        save_parameters(modified, path)
        restored = load_parameters(path)
        worse = CarbonModel(orin_2d, restored).embodied().total_kg
        baseline = CarbonModel(orin_2d, PARAMS).embodied().total_kg
        assert worse > baseline


class TestCrossModelConsistency:
    """All four models rank a design family consistently where they agree."""

    def test_every_model_sees_bigger_silicon_as_worse(self):
        small = [("7nm", 100.0)]
        large = [("7nm", 400.0)]
        ci = PARAMS.grid("taiwan").kg_co2_per_kwh
        assert (lca_estimate(large, PARAMS).total_kg
                > lca_estimate(small, PARAMS).total_kg)
        assert (first_order_estimate(400.0).total_kg
                > first_order_estimate(100.0).total_kg)
        small_d = ChipDesign.planar_2d("s", "7nm", area_mm2=100.0)
        large_d = ChipDesign.planar_2d("l", "7nm", area_mm2=400.0)
        assert (act_plus_estimate(large_d, ci, PARAMS).total_kg
                > act_plus_estimate(small_d, ci, PARAMS).total_kg)
        assert (CarbonModel(large_d, PARAMS).embodied().total_kg
                > CarbonModel(small_d, PARAMS).embodied().total_kg)

    def test_3d_carbon_sees_stacking_nuances_baselines_miss(self):
        """The headline modeling claim, end to end."""
        from repro.config.integration import AssemblyFlow
        from repro.studies.validation import lakefield_design

        ci = PARAMS.grid("taiwan").kg_co2_per_kwh
        d2w = lakefield_design(AssemblyFlow.D2W)
        w2w = lakefield_design(AssemblyFlow.W2W)
        ours_delta = (
            CarbonModel(w2w, PARAMS).embodied().total_kg
            - CarbonModel(d2w, PARAMS).embodied().total_kg
        )
        act_delta = (
            act_plus_estimate(w2w, ci, PARAMS).total_kg
            - act_plus_estimate(d2w, ci, PARAMS).total_kg
        )
        assert ours_delta > 0.1
        assert abs(act_delta) < 1e-9


class TestReportPipelines:
    def test_study_to_rows_to_viz(self, orin_2d):
        """Reports flow through io and viz without loss."""
        reports = [
            CarbonModel(orin_2d, PARAMS).evaluate(WL),
            CarbonModel(
                ChipDesign.homogeneous_split(orin_2d, "m3d"), PARAMS
            ).evaluate(WL),
        ]
        rows = [report_row(r) for r in reports]
        chart = stacked_bars(reports)
        for row, report in zip(rows, reports):
            assert row["total_kg"] == pytest.approx(report.total_kg)
            assert report.design_name in chart

    def test_product_design_full_pipeline(self):
        """A Table 1 product: evaluate, serialize, re-evaluate, render."""
        design = ryzen_5800x3d_design()
        report = CarbonModel(design, PARAMS).evaluate()
        clone_report = CarbonModel(
            repro.io.design_from_dict(design_to_dict(design)), PARAMS
        ).evaluate()
        assert report.total_kg == pytest.approx(clone_report.total_kg)
        assert "Ryzen7_5800X3D" in report.render()


class TestWorkloadVariants:
    def test_same_total_work_same_carbon(self, orin_2d):
        """Only total ops matter for compute energy, not the activity mix."""
        slow = Workload.from_activity("slow", 50.0, 2.0, 10.0)
        fast = Workload.from_activity("fast", 100.0, 1.0, 10.0)
        assert slow.total_tera_ops == pytest.approx(fast.total_tera_ops)
        model = CarbonModel(orin_2d, PARAMS)
        assert model.operational(slow).total_kg == pytest.approx(
            model.operational(fast).total_kg
        )

    def test_lifetime_scales_decision_rates_not_totals(self, orin_2d):
        """Same work over a longer life: same carbon, lower annual rate."""
        short = Workload("w", 1e9, lifetime_years=5.0)
        long = Workload("w", 1e9, lifetime_years=10.0)
        model = CarbonModel(orin_2d, PARAMS)
        a = model.operational(short)
        b = model.operational(long)
        assert a.total_kg == pytest.approx(b.total_kg)
        assert a.annual_kg == pytest.approx(2.0 * b.annual_kg)
