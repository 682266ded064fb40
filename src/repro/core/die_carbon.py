"""Die manufacturing carbon (Eq. 4).

``C_die = Σ_i C_wafer_i / DPW_i · 1/Y_die_i`` — per die: the BEOL-aware
wafer carbon (Eq. 6) divided across the dies on the wafer (Eq. 5), divided
by the Table 3 effective yield. Monolithic 3D prices one merged sequential
die on the tier footprint instead.

:func:`die_terms` is the one body of Eq. 4. The fab CI and the wafer
diameter may be floats (one point) or float64 columns (the vectorized
core's block of grid points); every other input is a scalar of the
resolved design. :func:`die_manufacturing_carbon` wraps the terms in
records for the report path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.parameters import ParameterSet
from ..units import mm2_to_cm2
from .dpw import dies_per_wafer, effective_area_per_die_mm2
from .resolve import ResolvedDesign
from .wafer import (
    fab_ci_error,
    m3d_wafer_carbon_per_cm2,
    wafer_carbon_per_cm2,
)


def area_carbon_kg(per_cm2, area_mm2, effective_yield: float):
    """Per-cm² carbon × area / effective yield: one Eq. 4 term.

    Eq. 11 (bonding, per-cm² carbon ``CI·EPA_bond``) and Eqs. 13–14
    (silicon and RDL substrates) price their terms in the same form.
    """
    return per_cm2 * mm2_to_cm2(area_mm2) / effective_yield


def carbon_sum(values):
    """Left-to-right sum: the summation order of every component total,
    for floats and float64 columns alike (the builtin ``sum`` compensates
    float rounding from Python 3.12 on). Like ``sum``, it starts from the
    int ``0``, so an empty sum reads ``0`` in a report. The term builders
    accumulate their totals in this order as they go."""
    total = 0
    for value in values:
        total = total + value
    return total


@dataclass(frozen=True)
class DieCarbonRecord:
    """Manufacturing carbon of one die (or one M3D merged die)."""

    name: str
    node: str
    die_area_mm2: float
    effective_wafer_area_mm2: float  # A_wafer / DPW share
    beol_layers: float
    carbon_per_cm2: float            # BEOL-aware Eq. 6 per-area carbon
    effective_yield: float           # Table 3 composed yield
    carbon_kg: float


@dataclass(frozen=True)
class DieCarbonResult:
    """Eq. 4 total with per-die records."""

    records: tuple[DieCarbonRecord, ...]

    @property
    def total_kg(self) -> float:
        return carbon_sum(r.carbon_kg for r in self.records)


def die_terms(
    resolved: ResolvedDesign,
    params: ParameterSet,
    ci_fab_kg_per_kwh,
    wafer_diameter_mm,
    dpw=dies_per_wafer,
) -> "tuple[list, float]":
    """Eq. 4, one term per die (one merged die for M3D), in die order,
    and their total.

    Each term is ``(die_area_mm2, carbon_per_cm2, effective_wafer_area_mm2,
    effective_yield, carbon_kg)``. ``dpw`` is Eq. 5 (see
    :func:`~repro.core.dpw.effective_area_per_die_mm2`).
    """
    beol_aware = params.beol_aware
    per_die = resolved.stack_yields.per_die
    if resolved.is_m3d:
        stack = resolved.m3d_stack
        assert stack is not None
        unit = m3d_wafer_carbon_per_cm2(
            list(zip(stack.tier_nodes, stack.tier_layers)), 1.0, params.m3d,
            beol_aware,
        )
        term = _die_term(unit, stack.footprint_mm2, per_die[0],
                         ci_fab_kg_per_kwh, wafer_diameter_mm, dpw)
        return [term], term[-1]
    terms = []
    total = 0.0
    for rdie, eff_yield in zip(resolved.dies, per_die):
        term = _die_term(
            wafer_carbon_per_cm2(rdie.node, 1.0, rdie.beol.layers, beol_aware),
            rdie.area_mm2, eff_yield, ci_fab_kg_per_kwh, wafer_diameter_mm,
            dpw,
        )
        terms.append(term)
        total = total + term[-1]
    return terms, total


def _die_term(unit, area_mm2, eff_yield, ci, wafer_diameter_mm, dpw):
    per_cm2 = unit.priced(ci)
    eff_area = effective_area_per_die_mm2(wafer_diameter_mm, area_mm2, dpw)
    return (area_mm2, per_cm2, eff_area, eff_yield,
            area_carbon_kg(per_cm2, eff_area, eff_yield))


def die_manufacturing_carbon(
    resolved: ResolvedDesign,
    params: ParameterSet,
    ci_fab_kg_per_kwh: float,
) -> DieCarbonResult:
    """Eq. 4 over all dies of the design, one record per die."""
    if ci_fab_kg_per_kwh < 0:
        raise fab_ci_error()
    terms, _ = die_terms(
        resolved, params, ci_fab_kg_per_kwh, params.wafer_diameter_mm
    )
    if resolved.is_m3d:
        stack = resolved.m3d_stack
        labels = [(
            f"{resolved.design.name}_m3d_stack",
            "+".join(node.name for node in stack.tier_nodes),
            sum(stack.tier_layers),
        )]
    else:
        labels = [
            (rdie.name, rdie.node.name, rdie.beol.layers)
            for rdie in resolved.dies
        ]
    # Fields in declaration order: name, node, die area, effective wafer
    # area, BEOL layers, per-cm² carbon, effective yield, carbon.
    return DieCarbonResult(tuple([
        DieCarbonRecord(name, node, area, eff_area, layers, per_cm2,
                        eff_yield, carbon)
        for (name, node, layers), (area, per_cm2, eff_area, eff_yield, carbon)
        in zip(labels, terms)
    ]))
