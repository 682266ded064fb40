"""One body per embodied equation, over floats and float64 columns alike.

Eqs. 3–6 and 11–14 are each written once and serve three callers: the
report path (records), the record-free total of Monte-Carlo draws and
the vectorized core (columns of wafer diameters and fab carbon
intensities). These tests pin that the one body gives the same float64
bits whichever way it is called, and that each error message comes from
one place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ChipDesign, DEFAULT_PARAMETERS
from repro.core.die_carbon import carbon_sum
from repro.core.dpw import dies_per_wafer, dpw_error, dpw_formula
from repro.core.embodied import embodied_carbon, embodied_totals
from repro.core.interposer_carbon import interposer_carbon
from repro.core.resolve import resolve_design
from repro.core.wafer import wafer_carbon_per_cm2
from repro.errors import DesignError, ParameterError
from repro.vec import DesignGrid, evaluate_grid

REFERENCE = ChipDesign.planar_2d(
    "bodies_ref", "7nm", gate_count=17.0e9, throughput_tops=254.0
)
INTEGRATIONS = ["2d", "micro_3d", "hybrid_3d", "m3d", "mcm", "info", "emib",
                "si_interposer"]
WAFERS_MM = np.array([200.0, 300.0, 450.0, 300.0])
CI_KG_PER_KWH = np.array([0.0, 0.5675, 0.028, 0.82])


def resolved_for(integration: str):
    design = (
        REFERENCE
        if integration == "2d"
        else ChipDesign.homogeneous_split(REFERENCE, integration)
    )
    return resolve_design(design, DEFAULT_PARAMETERS)


def same_bits(column, value) -> bool:
    return np.float64(column).tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("integration", INTEGRATIONS)
def test_embodied_totals_over_columns_match_each_float(integration):
    """Eq. 3 and its components, priced over a column of wafers and
    intensities, equal the per-point float answers bit for bit."""
    resolved = resolved_for(integration)
    columns = embodied_totals(
        resolved, DEFAULT_PARAMETERS, CI_KG_PER_KWH, WAFERS_MM, dpw_formula
    )
    for pos, (ci, wafer) in enumerate(zip(CI_KG_PER_KWH, WAFERS_MM)):
        floats = embodied_totals(
            resolved, DEFAULT_PARAMETERS, float(ci), float(wafer)
        )
        for name, column, value in zip(
            ("total", "die", "bonding", "packaging", "interposer"),
            columns[:5], floats[:5],
        ):
            point = column if np.ndim(column) == 0 else column[pos]
            assert same_bits(point, value), (name, pos)
        for column_term, float_term in zip(columns[5], floats[5]):
            for column_field, float_field in zip(column_term, float_term):
                point = (
                    column_field
                    if np.ndim(column_field) == 0
                    else column_field[pos]
                )
                assert same_bits(point, float_field), pos


@pytest.mark.parametrize("integration", INTEGRATIONS)
def test_embodied_totals_equal_the_report(integration):
    """The record-free total sums the terms the report wraps in records."""
    resolved = resolved_for(integration)
    for ci in (0.0, 0.5675, 0.82):
        report = embodied_carbon(resolved, DEFAULT_PARAMETERS, ci)
        total, die, bonding, packaging, interposer, terms = embodied_totals(
            resolved, DEFAULT_PARAMETERS, ci
        )
        assert total == report.total_kg
        assert (die, bonding, packaging, interposer) == (
            report.die_kg, report.bonding_kg, report.packaging_kg,
            report.interposer_kg,
        )
        assert [term[-1] for term in terms] == [
            record.carbon_kg for record in report.die.records
        ]


def test_dpw_formula_column_matches_the_checked_scalar():
    wafers = np.array([150.0, 200.0, 300.0, 450.0])
    for area in (12.5, 100.0, 455.0, 2000.0):
        column = dpw_formula(wafers, area)
        for pos, wafer in enumerate(wafers):
            assert same_bits(column[pos], dies_per_wafer(float(wafer), area))


def test_dpw_error_is_the_message_the_scalar_raises():
    dpw = dpw_formula(150.0, 4164.0)
    assert dpw < 1.0
    with pytest.raises(DesignError) as raised:
        dies_per_wafer(150.0, 4164.0)
    assert str(raised.value) == str(dpw_error(150.0, 4164.0, dpw))
    assert str(raised.value) == (
        "die of 4164 mm² does not fit a 150 mm wafer (DPW = -0.92)"
    )


@pytest.mark.parametrize("node", ["28nm", "7nm", "3nm"])
def test_unit_ci_breakdown_prices_any_ci_like_its_own(node):
    """Eq. 6 in the affine form ``(ci·epa + gpa) + mpa``: a breakdown
    built at ``ci = 1`` and priced at ``ci`` equals one built at ``ci``,
    for floats and, elementwise, for a column."""
    process = DEFAULT_PARAMETERS.node(node)
    unit = wafer_carbon_per_cm2(process, 1.0, 9.0)
    column = unit.priced(CI_KG_PER_KWH)
    for pos, ci in enumerate(CI_KG_PER_KWH):
        own = wafer_carbon_per_cm2(process, float(ci), 9.0).total_kg_per_cm2
        assert unit.priced(float(ci)) == own
        assert same_bits(column[pos], own)


def test_carbon_sum_adds_left_to_right():
    """No compensated summation (the builtin ``sum`` compensates from
    Python 3.12 on), so floats and columns round alike."""
    assert carbon_sum([1e16, 1.0, -1e16]) == 0.0
    column = carbon_sum([np.array([1e16]), np.array([1.0]),
                         np.array([-1e16])])
    assert column[0] == 0.0


def test_carbon_sum_of_no_terms_is_int_zero():
    total = carbon_sum([])
    assert total == 0 and type(total) is int


def test_interposer_carbon_refuses_a_negative_ci_for_every_substrate():
    for integration in ("info", "emib", "si_interposer", "mcm"):
        with pytest.raises(ParameterError, match="fab carbon intensity"):
            interposer_carbon(
                resolved_for(integration), DEFAULT_PARAMETERS, -0.1
            )


def test_vec_die_errors_precede_the_substrate_error():
    """A die that misses the grid wafer keeps its own message even when
    the substrate misses its interposer wafer for the whole block."""
    big = ChipDesign.planar_2d("big", "7nm", gate_count=3e11)
    split = ChipDesign.homogeneous_split(big, "si_interposer")
    grid = DesignGrid.from_designs(
        [split], wafer_diameters_mm=[150.0, 200.0, 450.0],
        fab_locations=["taiwan"],
    )
    result = evaluate_grid(grid)
    messages = [result.errors[i] for i in range(len(grid.points))]
    assert messages[0] == (
        "die of 4164 mm² does not fit a 150 mm wafer (DPW = -0.92)"
    )
    assert messages[1].startswith("die of 4164 mm² does not fit a 200 mm")
    assert messages[2].startswith("die of 9993 mm² does not fit a 300 mm")
    assert result.error_count == 3
