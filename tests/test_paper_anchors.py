"""Headline reproduction assertions against the paper's published numbers.

Every tolerance here is a *reproduction band*: the substrate is a
calibrated analytical model, so shapes (who wins, signs, orderings,
valid/invalid structure) are asserted tightly while absolute ratios get
a few percentage points of slack. ``pytest benchmarks -s`` prints the
exact measured values next to the paper's in a side-by-side table at
session end.
"""

import math

import pytest

from repro.core.metrics import ChoiceRegime
from repro.studies.decision import PAPER_TABLE5, table5_study
from repro.studies.drive import drive_study
from repro.studies.validation import epyc_validation, lakefield_validation


@pytest.fixture(scope="module")
def epyc():
    return epyc_validation()


@pytest.fixture(scope="module")
def lakefield():
    return lakefield_validation()


@pytest.fixture(scope="module")
def table5():
    return table5_study()


@pytest.fixture(scope="module")
def fig5a():
    return drive_study("homogeneous")


@pytest.fixture(scope="module")
def fig5b():
    return drive_study("heterogeneous")


class TestFig4aEpyc:
    def test_lca_highest(self, epyc):
        """Sec. 4.1: LCA reports higher emissions than 3D-Carbon and ACT+."""
        assert epyc.lca.total_kg > epyc.carbon_3d.total_kg
        assert epyc.lca.total_kg > epyc.act_plus.total_kg

    def test_2d_adjusted_discrepancy_4_4_percent(self, epyc):
        """Paper: ≈ 4.4 % gap between LCA and 2D-adjusted 3D-Carbon."""
        assert epyc.lca_vs_2d_discrepancy == pytest.approx(0.044, abs=0.02)

    def test_packaging_3_47_vs_0_15(self, epyc):
        """Paper: 3D-Carbon packaging 3.47 kg vs ACT+'s fixed 0.15 kg."""
        assert epyc.carbon_3d.packaging_kg == pytest.approx(3.47, abs=0.05)
        assert epyc.act_plus.packaging_kg == pytest.approx(0.15)

    def test_ccds_use_fewer_beol_layers_than_max(self, epyc):
        """Sec. 4.1: BEOL-aware carbon for CPU dies with fewer layers."""
        ccd = next(
            r for r in epyc.carbon_3d.die.records if r.name.startswith("ccd")
        )
        assert ccd.beol_layers < 13.0


class TestFig4bLakefield:
    def test_d2w_yield_anchors(self, lakefield):
        """Sec. 4.2: logic 89.3 %, memory 88.4 % in D2W."""
        assert lakefield.d2w_logic_yield == pytest.approx(0.893, abs=0.003)
        assert lakefield.d2w_memory_yield == pytest.approx(0.884, abs=0.003)

    def test_w2w_yield_anchor(self, lakefield):
        """Sec. 4.2: both dies yield 79.7 % in W2W."""
        assert lakefield.w2w_yield == pytest.approx(0.797, abs=0.003)

    def test_lca_underestimates(self, lakefield):
        """Sec. 4.2: GaBi's 14 nm assumption underestimates 3D-Carbon."""
        assert lakefield.lca.total_kg < lakefield.carbon_3d_d2w.total_kg

    def test_d2w_cheaper_than_w2w(self, lakefield):
        assert (lakefield.carbon_3d_d2w.total_kg
                < lakefield.carbon_3d_w2w.total_kg)

    def test_act_plus_flow_blind(self, lakefield):
        """ACT+ treats 3D as 2D: one number for both flows, below both."""
        assert lakefield.act_plus.total_kg < lakefield.carbon_3d_d2w.total_kg


class TestTable5:
    def test_embodied_save_ratios(self, table5):
        """All five save ratios within a few points of the paper."""
        for option, expected in PAPER_TABLE5.items():
            measured = table5.row(option).metrics.embodied_save_ratio * 100
            assert measured == pytest.approx(
                expected["embodied_save"], abs=4.0
            ), option

    def test_overall_save_ratios(self, table5):
        for option, expected in PAPER_TABLE5.items():
            measured = table5.row(option).metrics.overall_save_ratio * 100
            assert measured == pytest.approx(
                expected["overall_save"], abs=5.0
            ), option

    def test_savings_ordering(self, table5):
        """M3D > Hybrid > Micro > EMIB > 0 > Si_int (paper's ordering)."""
        save = {
            option: table5.row(option).metrics.embodied_save_ratio
            for option in PAPER_TABLE5
        }
        assert (save["M3D"] > save["Hybrid"] > save["Micro"]
                > save["EMIB"] > 0.0 > save["Si_int"])

    def test_tc_structure(self, table5):
        """Paper: T_c finite for EMIB/Micro, ∞ for Si_int, >0 for 3D."""
        assert (table5.row("EMIB").metrics.regime
                is ChoiceRegime.BETTER_UNTIL_TC)
        assert 5.0 < table5.row("EMIB").metrics.tc_years < 25.0
        assert (table5.row("Micro").metrics.regime
                is ChoiceRegime.BETTER_UNTIL_TC)
        assert 15.0 < table5.row("Micro").metrics.tc_years < 45.0
        assert math.isinf(table5.row("Si_int").metrics.tc_years)
        for option in ("Hybrid", "M3D"):
            assert (table5.row(option).metrics.regime
                    is ChoiceRegime.ALWAYS_BETTER)

    def test_tr_structure(self, table5):
        """Paper: T_r = ∞ for EMIB/Si/Micro; >75 Hybrid; >19 M3D."""
        for option in ("EMIB", "Si_int", "Micro"):
            assert math.isinf(table5.row(option).metrics.tr_years), option
        assert table5.row("Hybrid").metrics.tr_years > 75.0
        assert table5.row("M3D").metrics.tr_years > 19.0

    def test_10_year_lifetime_decisions(self, table5):
        """Sec. 5.2: choose EMIB + all three 3D; never replace."""
        for option in ("EMIB", "Micro", "Hybrid", "M3D"):
            assert table5.row(option).metrics.choose_recommended, option
        assert not table5.row("Si_int").metrics.choose_recommended
        for option in PAPER_TABLE5:
            assert not table5.row(option).metrics.replace_recommended, option


class TestFig5Validity:
    def test_orin_invalid_options(self, fig5a):
        """Sec. 5.2: exactly MCM, InFO_1, InFO_2 are invalid for ORIN."""
        invalid = {
            cell.option
            for cell in fig5a.cells
            if cell.device == "ORIN" and not cell.valid
        }
        assert invalid == {"MCM", "InFO_1", "InFO_2"}

    def test_thor_all_25d_invalid(self, fig5a):
        """Sec. 5.1: none of the four 2.5D options satisfy THOR."""
        for option in ("MCM", "InFO_1", "InFO_2", "EMIB", "Si_int"):
            assert not fig5a.cell("THOR", option).valid, option
        for option in ("2D", "Micro", "Hybrid", "M3D"):
            assert fig5a.cell("THOR", option).valid, option

    def test_early_generations_all_valid(self, fig5a):
        for device in ("PX2", "XAVIER"):
            for option in ("MCM", "InFO_1", "InFO_2", "EMIB", "Si_int"):
                assert fig5a.cell(device, option).valid, (device, option)

    def test_operational_decreases_over_generations(self, fig5a):
        """Sec. 5.1: efficiency growth shrinks operational carbon."""
        ops = [
            fig5a.cell(device, "2D").report.operational_kg
            for device in ("PX2", "XAVIER", "ORIN", "THOR")
        ]
        assert all(a > b for a, b in zip(ops, ops[1:]))

    def test_25d_operational_above_3d(self, fig5a):
        """Sec. 5.1: 2.5D operational exceeds 2D/3D (I/O + degradation)."""
        for device in ("PX2", "XAVIER", "ORIN"):
            two_d = fig5a.cell(device, "2D").report.operational_kg
            emib = fig5a.cell(device, "EMIB").report.operational_kg
            hybrid = fig5a.cell(device, "Hybrid").report.operational_kg
            assert emib > two_d
            assert emib > hybrid

    def test_info_and_si_increase_embodied_for_orin(self, fig5a):
        """Sec. 5.1: InFO/Si-interposer raise embodied carbon (substrates)."""
        two_d = fig5a.cell("ORIN", "2D").report.embodied_kg
        assert fig5a.cell("ORIN", "Si_int").report.embodied_kg > two_d
        assert fig5a.cell("ORIN", "InFO_1").report.embodied_kg > two_d

    def test_3d_reduces_embodied_everywhere(self, fig5a):
        for device in ("PX2", "XAVIER", "ORIN", "THOR"):
            two_d = fig5a.cell(device, "2D").report.embodied_kg
            for option in ("Micro", "Hybrid", "M3D"):
                assert (fig5a.cell(device, option).report.embodied_kg
                        < two_d), (device, option)

    def test_m3d_is_best_embodied(self, fig5a):
        for device in ("PX2", "XAVIER", "ORIN", "THOR"):
            cells = [
                c for c in fig5a.cells if c.device == device
            ]
            best = min(cells, key=lambda c: c.report.embodied_kg)
            assert best.option == "M3D", device


class TestFig5Heterogeneous:
    def test_hetero_saves_less_than_homog(self, fig5a, fig5b):
        """Sec. 5.1: the heterogeneous approach introduces lesser saving."""
        for option in ("Hybrid", "M3D"):
            homog = fig5a.cell("ORIN", option).report.embodied_kg
            hetero = fig5b.cell("ORIN", option).report.embodied_kg
            assert hetero > homog, option

    def test_hetero_memory_die_on_28nm(self, fig5b):
        report = fig5b.cell("ORIN", "Hybrid").report
        nodes = {r.node for r in report.embodied.die.records}
        assert "28nm" in nodes and "7nm" in nodes

    def test_hetero_m3d_still_saves(self, fig5b):
        two_d = fig5b.cell("ORIN", "2D").report.embodied_kg
        assert fig5b.cell("ORIN", "M3D").report.embodied_kg < two_d
