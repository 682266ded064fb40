"""Bonding carbon (Eq. 11).

``C_bonding = Σ CI_emb · EPA_bond · A_die_i / Y_bonding_i`` where the EPA
and the effective yield depend on the bonding method (C4 / micro-bump /
hybrid) and assembly flow (D2W / W2W or chip-first / chip-last):

* 3D stacks of N dies perform N−1 inter-die bonds (Eq. 11's sum bound);
  bond i attaches die i+1 onto die i and is charged die i's area;
* 2.5D assemblies attach each of the N dies to the substrate with C4
  bumps, so N die-attach steps are charged;
* 2D designs and monolithic 3D (sequential manufacturing) have no bonds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.integration import BondingMethod
from ..config.parameters import ParameterSet
from .die_carbon import area_carbon_kg, carbon_sum
from .resolve import ResolvedDesign


@dataclass(frozen=True)
class BondRecord:
    """One bonding step."""

    step: str
    method: str
    area_mm2: float
    epa_kwh_per_cm2: float
    effective_yield: float
    carbon_kg: float


@dataclass(frozen=True)
class BondingCarbonResult:
    """Eq. 11 total with per-step records."""

    records: tuple[BondRecord, ...]

    @property
    def total_kg(self) -> float:
        return carbon_sum(r.carbon_kg for r in self.records)


_NO_BONDS = ((), 0.0)


def bond_terms(
    resolved: ResolvedDesign,
    params: ParameterSet,
    ci_fab_kg_per_kwh,
) -> "tuple[list | tuple, float]":
    """Eq. 11, one term per bonding step in step order, and their total.

    Each term is ``(area_mm2, epa_kwh_per_cm2, effective_yield,
    carbon_kg)``. The fab CI may be a float or a float64 column.
    """
    spec = resolved.spec
    if spec.is_2d or resolved.is_m3d:
        return _NO_BONDS
    if spec.is_3d:
        # N-1 bonds; bond i joins die i+1 onto die i, charged A_die_i.
        process = params.bonding.get((spec.bonding, resolved.design.assembly))
        dies = resolved.dies[:-1]
    else:
        # 2.5D: N die-attach steps onto the substrate.
        process = params.bonding.get((BondingMethod.C4, resolved.design.assembly))
        dies = resolved.dies
    epa = process.epa_kwh_per_cm2
    per_cm2 = ci_fab_kg_per_kwh * epa
    terms = []
    total = 0.0
    for rdie, eff_yield in zip(dies, resolved.stack_yields.per_bond):
        carbon = area_carbon_kg(per_cm2, rdie.area_mm2, eff_yield)
        terms.append((rdie.area_mm2, epa, eff_yield, carbon))
        total = total + carbon
    return terms, total


def bonding_carbon(
    resolved: ResolvedDesign,
    params: ParameterSet,
    ci_fab_kg_per_kwh: float,
) -> BondingCarbonResult:
    """Eq. 11 for the whole design, one record per bonding step."""
    terms, _ = bond_terms(resolved, params, ci_fab_kg_per_kwh)
    if not terms:
        return BondingCarbonResult(records=())
    spec = resolved.spec
    assembly = resolved.design.assembly.value
    dies = resolved.dies
    if spec.is_3d:
        method = f"{spec.bonding.value}/{assembly}"
        steps = [
            f"bond_{lower.name}__{upper.name}"
            for lower, upper in zip(dies, dies[1:])
        ]
    else:
        method = f"c4/{assembly}"
        steps = [f"attach_{rdie.name}" for rdie in dies]
    return BondingCarbonResult(tuple([
        BondRecord(step, method, area, epa, eff_yield, carbon)
        for step, (area, epa, eff_yield, carbon) in zip(steps, terms)
    ]))
