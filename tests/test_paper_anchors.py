"""Headline reproduction assertions against the paper's published numbers.

Every number compared with the paper is declared once, in
:data:`repro.studies.anchors.ANCHORS` (paper value, source, band, how
to measure it); :func:`test_anchor_holds` checks each entry on the study
result it reads. The substrate is a calibrated analytical model, so
those numbers get reproduction bands, while the classes below assert the
shapes they sit in tightly: who wins, signs, orderings, regimes and
valid/invalid structure.
``pytest benchmarks -s`` prints every anchor's measured value next to
the paper's at session end.
"""

import math

import pytest

from repro.core.metrics import ChoiceRegime
from repro.studies.anchors import ANCHORS
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


@pytest.mark.parametrize("anchor", ANCHORS.values(), ids=ANCHORS)
def test_anchor_holds(anchor, request):
    """Each anchor on its study's result (the fixture of that name)."""
    measured = anchor.measure(request.getfixturevalue(anchor.study))
    assert anchor.holds(measured), (anchor, measured)


class TestFig4aEpyc:
    def test_lca_highest(self, epyc):
        """Sec. 4.1: LCA reports higher emissions than 3D-Carbon and ACT+."""
        assert epyc.lca.total_kg > epyc.carbon_3d.total_kg
        assert epyc.lca.total_kg > epyc.act_plus.total_kg

    def test_ccds_use_fewer_beol_layers_than_max(self, epyc):
        """Sec. 4.1: BEOL-aware carbon for CPU dies with fewer layers."""
        ccd = next(
            r for r in epyc.carbon_3d.die.records if r.name.startswith("ccd")
        )
        assert ccd.beol_layers < 13.0


class TestFig4bLakefield:
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
    def test_savings_ordering(self, table5):
        """M3D > Hybrid > Micro > EMIB > 0 > Si_int (paper's ordering)."""
        save = {
            option: table5.row(option).metrics.embodied_save_ratio
            for option in PAPER_TABLE5
        }
        assert (save["M3D"] > save["Hybrid"] > save["Micro"]
                > save["EMIB"] > 0.0 > save["Si_int"])

    def test_tc_structure(self, table5):
        """Paper: T_c finite for EMIB/Micro, ∞ for Si_int, >0 for 3D
        (the finite ones' bounds are anchors)."""
        assert (table5.row("EMIB").metrics.regime
                is ChoiceRegime.BETTER_UNTIL_TC)
        assert (table5.row("Micro").metrics.regime
                is ChoiceRegime.BETTER_UNTIL_TC)
        assert math.isinf(table5.row("Si_int").metrics.tc_years)
        for option in ("Hybrid", "M3D"):
            assert (table5.row(option).metrics.regime
                    is ChoiceRegime.ALWAYS_BETTER)

    def test_tr_structure(self, table5):
        """Paper: T_r = ∞ for EMIB/Si/Micro, finite for Hybrid and M3D
        (their bounds are anchors)."""
        for option in ("EMIB", "Si_int", "Micro"):
            assert math.isinf(table5.row(option).metrics.tr_years), option

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
        for device in ("PX2", "XAVIER", "ORIN", "THOR"):
            for option in ("Hybrid", "M3D"):
                homog = fig5a.cell(device, option).report.embodied_kg
                hetero = fig5b.cell(device, option).report.embodied_kg
                assert hetero > homog, (device, option)

    def test_hetero_memory_die_on_28nm(self, fig5b):
        report = fig5b.cell("ORIN", "Hybrid").report
        nodes = {r.node for r in report.embodied.die.records}
        assert "28nm" in nodes and "7nm" in nodes

    def test_hetero_m3d_still_saves(self, fig5b):
        """M3D stays the best embodied option, below 2D, except on THOR,
        whose 28 nm memory partition outgrows the whole 5 nm 2D die."""
        for device in ("PX2", "XAVIER", "ORIN"):
            cells = [c for c in fig5b.cells if c.device == device]
            best = min(cells, key=lambda c: c.report.embodied_kg)
            assert best.option == "M3D", device
            assert (best.report.embodied_kg
                    < fig5b.cell(device, "2D").report.embodied_kg), device
