"""Golden regression values: pin the calibrated model outputs.

These values are produced by the default ParameterSet; the side-by-side
paper-vs-measured table that ``pytest benchmarks -s`` prints at session
end shows them next to the paper's. They are intentionally tight (0.5 %
relative): any change to a calibrated constant that silently shifts the
reproduction will fail here first, pointing straight at the calibration
contract. When a deliberate recalibration happens, re-read that table
and update these pins together.
"""

import pytest

from repro import CarbonModel, ChipDesign, ParameterSet, Workload
from repro.studies.drive import drive_2d_design
from repro.studies.validation import epyc_validation, lakefield_validation

PARAMS = ParameterSet.default()
WL = Workload.autonomous_vehicle()
RTOL = 0.005


def evaluate(design):
    return CarbonModel(design, PARAMS, "taiwan").evaluate(WL)


class TestGoldenOrin:
    """The Fig. 5(a)/Table 5 ORIN column, pinned."""

    EXPECTED = {
        "2d": (16.96, 12.70),
        "micro_3d": (12.45, 14.06),
        "hybrid_3d": (10.95, 12.32),
        "m3d": (5.79, 11.66),
        "emib": (12.85, 15.98),
        "si_interposer": (18.61, 14.00),
    }

    @pytest.fixture(scope="class")
    def reports(self):
        reference = drive_2d_design("ORIN")
        out = {"2d": evaluate(reference)}
        for name in self.EXPECTED:
            if name != "2d":
                out[name] = evaluate(
                    ChipDesign.homogeneous_split(reference, name)
                )
        return out

    @pytest.mark.parametrize("integration", sorted(EXPECTED))
    def test_embodied_pinned(self, reports, integration):
        expected_emb, _ = self.EXPECTED[integration]
        assert reports[integration].embodied_kg == pytest.approx(
            expected_emb, rel=RTOL
        )

    @pytest.mark.parametrize("integration", sorted(EXPECTED))
    def test_operational_pinned(self, reports, integration):
        _, expected_op = self.EXPECTED[integration]
        assert reports[integration].operational_kg == pytest.approx(
            expected_op, rel=RTOL
        )


class TestGoldenValidation:
    def test_epyc_totals(self):
        result = epyc_validation()
        assert result.lca.total_kg == pytest.approx(26.07, rel=RTOL)
        assert result.act_plus.total_kg == pytest.approx(11.51, rel=RTOL)
        assert result.carbon_3d.total_kg == pytest.approx(18.47, rel=RTOL)
        assert result.carbon_3d_as_2d.total_kg == pytest.approx(
            25.00, rel=RTOL
        )

    def test_lakefield_totals(self):
        result = lakefield_validation()
        assert result.lca.total_kg == pytest.approx(3.199, rel=RTOL)
        assert result.act_plus.total_kg == pytest.approx(2.817, rel=RTOL)
        assert result.carbon_3d_d2w.total_kg == pytest.approx(3.345, rel=RTOL)
        assert result.carbon_3d_w2w.total_kg == pytest.approx(3.642, rel=RTOL)


class TestGoldenComponents:
    """Component-level pins for the 2D ORIN (the calibration root)."""

    def test_orin_2d_breakdown(self):
        report = evaluate(drive_2d_design("ORIN"))
        breakdown = report.embodied.breakdown()
        assert breakdown["die"] == pytest.approx(15.37, rel=RTOL)
        assert breakdown["packaging"] == pytest.approx(1.59, rel=RTOL)
        assert breakdown["bonding"] == 0.0
        assert breakdown["interposer"] == 0.0

    def test_orin_2d_derived_quantities(self):
        resolved = CarbonModel(drive_2d_design("ORIN"), PARAMS).resolved()
        die = resolved.dies[0]
        assert die.area_mm2 == pytest.approx(458.15, rel=RTOL)
        assert die.raw_yield == pytest.approx(0.5375, rel=RTOL)
        assert die.beol.layers == pytest.approx(12.70, rel=0.01)

    def test_orin_emib_bandwidth(self):
        design = ChipDesign.homogeneous_split(
            drive_2d_design("ORIN"), "emib"
        )
        bw = CarbonModel(design, PARAMS).bandwidth()
        assert bw.required_tb_s == pytest.approx(33.02, rel=RTOL)
        assert bw.ratio == pytest.approx(0.722, abs=0.01)
        assert bw.degradation == pytest.approx(0.111, abs=0.005)
