"""Embodied-carbon orchestration (Eq. 3).

``C_emb = C_die + C_bonding + C_packaging + C_int`` — this module resolves
the design once and runs the four component calculators, returning an
:class:`EmbodiedReport` with the full breakdown the paper's Fig. 4/5 bars
are built from.

Each component equation has one body (``die_terms``, ``bond_terms``,
``package_terms``, ``substrate_term``). :func:`embodied_carbon` wraps
their terms in records; :func:`embodied_totals` sums them without
records, for one point (Monte-Carlo draws) or over columns of wafer
diameters and fab carbon intensities (the vectorized core).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.parameters import ParameterSet
from .bonding_carbon import BondingCarbonResult, bond_terms, bonding_carbon
from .design import ChipDesign
from .die_carbon import (
    DieCarbonResult,
    die_manufacturing_carbon,
    die_terms,
)
from .dpw import dies_per_wafer
from .interposer_carbon import (
    InterposerCarbonResult,
    interposer_carbon,
    substrate_term,
)
from .packaging_carbon import (
    PackagingCarbonResult,
    package_terms,
    packaging_carbon,
)
from .resolve import ResolvedDesign, resolve_design


def embodied_sum(die_kg, bonding_kg, packaging_kg, interposer_kg):
    """Eq. 3 over the four component totals, in one summation order."""
    return die_kg + bonding_kg + packaging_kg + interposer_kg


@dataclass(frozen=True)
class EmbodiedReport:
    """Eq. 3 breakdown for one design."""

    design_name: str
    integration: str
    die: DieCarbonResult
    bonding: BondingCarbonResult
    packaging: PackagingCarbonResult
    interposer: InterposerCarbonResult

    @property
    def die_kg(self) -> float:
        return self.die.total_kg

    @property
    def bonding_kg(self) -> float:
        return self.bonding.total_kg

    @property
    def packaging_kg(self) -> float:
        return self.packaging.carbon_kg

    @property
    def interposer_kg(self) -> float:
        return self.interposer.carbon_kg

    @property
    def total_kg(self) -> float:
        return embodied_sum(
            self.die_kg, self.bonding_kg, self.packaging_kg,
            self.interposer_kg,
        )

    def breakdown(self) -> dict[str, float]:
        """Component → kg CO₂ mapping (sums to ``total_kg``)."""
        return {
            "die": self.die_kg,
            "bonding": self.bonding_kg,
            "packaging": self.packaging_kg,
            "interposer": self.interposer_kg,
        }


def embodied_totals(
    resolved: ResolvedDesign,
    params: ParameterSet,
    ci_fab_kg_per_kwh,
    wafer_diameter_mm=None,
    dpw=dies_per_wafer,
) -> tuple:
    """Eq. 3 without records, bit-identical to :func:`embodied_carbon`.

    Returns ``(total_kg, die_kg, bonding_kg, packaging_kg, interposer_kg,
    die_terms)``, the last the Eq. 4 terms of
    :func:`~repro.core.die_carbon.die_terms`. ``ci_fab_kg_per_kwh`` and
    ``wafer_diameter_mm`` (default ``params.wafer_diameter_mm``) are
    floats, or float64 columns of one length; ``dpw`` is Eq. 5 (see
    :func:`~repro.core.dpw.effective_area_per_die_mm2`). The components
    run in the report path's order — dies, bonding, packaging, substrate
    — so the first error raised is the report path's.
    """
    if wafer_diameter_mm is None:
        wafer_diameter_mm = params.wafer_diameter_mm
    dies, die_kg = die_terms(
        resolved, params, ci_fab_kg_per_kwh, wafer_diameter_mm, dpw
    )
    bonding_kg = bond_terms(resolved, params, ci_fab_kg_per_kwh)[1]
    packaging_kg = package_terms(resolved, params)[3]
    substrate = substrate_term(resolved, params, ci_fab_kg_per_kwh)
    interposer_kg = 0.0 if substrate is None else substrate[1]
    return (
        embodied_sum(die_kg, bonding_kg, packaging_kg, interposer_kg),
        die_kg, bonding_kg, packaging_kg, interposer_kg, dies,
    )


def embodied_carbon(
    design: "ChipDesign | ResolvedDesign",
    params: ParameterSet,
    ci_fab_kg_per_kwh: float,
) -> EmbodiedReport:
    """Eq. 3: full embodied carbon of a design.

    Accepts either a raw :class:`ChipDesign` (resolved internally) or an
    already-resolved design (to share resolution with the operational and
    bandwidth models).
    """
    resolved = (
        design
        if isinstance(design, ResolvedDesign)
        else resolve_design(design, params)
    )
    return EmbodiedReport(
        resolved.design.name,
        resolved.spec.name,
        die_manufacturing_carbon(resolved, params, ci_fab_kg_per_kwh),
        bonding_carbon(resolved, params, ci_fab_kg_per_kwh),
        packaging_carbon(resolved, params),
        interposer_carbon(resolved, params, ci_fab_kg_per_kwh),
    )
