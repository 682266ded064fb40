"""Packaging carbon (Eq. 12).

``C_packaging = CPA_packaging · A_package`` with the package area from the
linear empirical model of the selected package class (Sec. 3.2.3):

* 2D — the single die's area is the base;
* 3D — the *largest* die (the stack footprint) is the base;
* 2.5D — the *total* die area is the base (the assembly spreads out);
* monolithic 3D — the merged footprint.

A design may also pin the package area explicitly (validation studies use
the published package sizes).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.parameters import ParameterSet
from ..units import mm2_to_cm2
from .resolve import ResolvedDesign


@dataclass(frozen=True)
class PackagingCarbonResult:
    """Eq. 12 output."""

    package_class: str
    base_area_mm2: float
    package_area_mm2: float
    cpa_kg_per_cm2: float
    carbon_kg: float


def package_base_area_mm2(resolved: ResolvedDesign) -> float:
    """The area the empirical package model scales from (Sec. 3.2.3)."""
    if resolved.is_m3d:
        assert resolved.m3d_stack is not None
        return resolved.m3d_stack.footprint_mm2
    spec = resolved.spec
    if spec.is_3d:
        return resolved.max_die_area_mm2
    if spec.is_2_5d:
        return resolved.total_die_area_mm2
    return resolved.dies[0].area_mm2


def package_terms(resolved: ResolvedDesign, params: ParameterSet) -> tuple:
    """Eq. 12: ``(package, base_area_mm2, package_area_mm2, carbon_kg)``.

    CI- and wafer-free, so one float serves every point of a grid block.
    """
    package = params.packaging.get(resolved.design.package.package_class)
    base = package_base_area_mm2(resolved)
    override = resolved.design.package.area_mm2
    area = override if override is not None else package.package_area_mm2(base)
    return package, base, area, package.cpa_kg_per_cm2 * mm2_to_cm2(area)


def packaging_carbon(
    resolved: ResolvedDesign, params: ParameterSet
) -> PackagingCarbonResult:
    """Eq. 12 for the whole design, as a record."""
    package, base, area, carbon = package_terms(resolved, params)
    return PackagingCarbonResult(
        package.name, base, area, package.cpa_kg_per_cm2, carbon
    )
