"""2.5D substrate carbon: RDL / EMIB / silicon interposer (Eq. 13–14).

Silicon substrates (interposer, EMIB bridge) are "modeled similarly to die
carbon" (Sec. 3.2.4): BEOL-only wafer carbon on the dedicated interposer
node, divided by interposer-per-wafer (Eq. 5) and the Table 3 effective
substrate yield. InFO's RDL uses the per-area RDL characterization
``CPA_RDL`` instead (panel-level build-up, not a processed silicon wafer).
MCM's organic substrate is part of the package (zero here).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.integration import SubstrateKind
from ..config.parameters import ParameterSet
from .die_carbon import area_carbon_kg
from .dpw import effective_area_per_die_mm2
from .resolve import ResolvedDesign
from .wafer import fab_ci_error, wafer_carbon_per_cm2


@dataclass(frozen=True)
class InterposerCarbonResult:
    """Eq. 13–14 output (zero for designs without a priced substrate)."""

    kind: SubstrateKind
    area_mm2: float
    effective_yield: float
    carbon_kg: float


_NO_SUBSTRATE = InterposerCarbonResult(
    kind=SubstrateKind.NONE, area_mm2=0.0, effective_yield=1.0, carbon_kg=0.0
)


def substrate_term(
    resolved: ResolvedDesign,
    params: ParameterSet,
    ci_fab_kg_per_kwh,
) -> "tuple | None":
    """C_int: ``(effective_yield, carbon_kg)``, or None without a priced
    substrate. The fab CI may be a float or a float64 column.

    A silicon substrate sits on its own interposer wafer
    (``params.substrate.wafer_diameter_mm``), a scalar even when the
    dies are priced over a wafer-diameter column; a substrate that does
    not fit it raises for the whole design.
    """
    substrate = resolved.substrate
    if substrate is None or substrate.kind is SubstrateKind.ORGANIC:
        return None
    eff_yield = resolved.stack_yields.substrate
    if eff_yield is None:
        eff_yield = substrate.raw_yield
    if substrate.kind is SubstrateKind.RDL:
        return eff_yield, area_carbon_kg(
            params.substrate.rdl_cpa_kg_per_cm2, substrate.area_mm2, eff_yield
        )
    # Silicon interposer or EMIB bridge: priced like a (BEOL-only) die.
    node = params.node(params.substrate.silicon_node)
    unit = wafer_carbon_per_cm2(
        node, 1.0, float(node.max_beol_layers), params.beol_aware
    )
    eff_area = effective_area_per_die_mm2(
        params.substrate.wafer_diameter_mm, substrate.area_mm2
    )
    return eff_yield, area_carbon_kg(
        unit.priced(ci_fab_kg_per_kwh), eff_area, eff_yield
    )


def interposer_carbon(
    resolved: ResolvedDesign,
    params: ParameterSet,
    ci_fab_kg_per_kwh: float,
) -> InterposerCarbonResult:
    """C_int of Eq. 3 for the design's substrate (if any), as a record."""
    if ci_fab_kg_per_kwh < 0:
        raise fab_ci_error()
    term = substrate_term(resolved, params, ci_fab_kg_per_kwh)
    if term is None:
        return _NO_SUBSTRATE
    substrate = resolved.substrate
    return InterposerCarbonResult(substrate.kind, substrate.area_mm2, *term)
