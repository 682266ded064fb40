"""Packaging carbon characterization (Eq. 12).

3D-Carbon estimates packaging carbon as ``CPA_packaging · A_package`` where
``A_package`` follows a linear empirical model from the Chiplet Actuary cost
study (Feng DAC'22): the package area is a technology-dependent multiple of
the *largest* die for 3D stacks and of the *total* die area for 2.5D
assemblies (Sec. 3.2.3).

``CPA_packaging`` defaults to 0.0787 kg CO₂/cm² of package area for organic
laminate packages — calibrated so the EPYC 7452 validation of Sec. 4.1
reproduces the paper's 3.47 kg packaging footprint on its 58.5 × 75.4 mm
SP3 package (Nagapurkar et al., SUSCOM'22 embodied-energy characterization).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from ..errors import ParameterError
from .table import RecordTable, unknown_name


@dataclass(frozen=True)
class PackageClass:
    """One package family: carbon per area plus the area scale factor s."""

    name: str
    cpa_kg_per_cm2: float
    #: Package area = scale × base die area (max die for 3D, Σ dies for 2.5D,
    #: the single die for 2D). Table 2: s ≥ 1.
    area_scale: float
    #: Additive margin (mm²) for BGA field / keep-out, the intercept of the
    #: linear empirical equation.
    area_margin_mm2: float = 0.0

    def __post_init__(self) -> None:
        if self.cpa_kg_per_cm2 < 0:
            raise ParameterError(f"{self.name}: CPA must be >= 0")
        if self.area_scale < 1.0:
            raise ParameterError(
                f"{self.name}: package area scale must be >= 1 (Table 2)"
            )
        if self.area_margin_mm2 < 0:
            raise ParameterError(f"{self.name}: area margin must be >= 0")

    def package_area_mm2(self, base_area_mm2: float) -> float:
        """Linear empirical package-area model A_pkg = s·A_base + margin."""
        if base_area_mm2 < 0:
            raise ParameterError("base area must be >= 0")
        return self.area_scale * base_area_mm2 + self.area_margin_mm2

    def with_overrides(self, **overrides) -> "PackageClass":
        return replace(self, **overrides)


#: Built-in package classes.
_BUILTIN_CLASSES: tuple[PackageClass, ...] = (
    # Large flip-chip BGA, e.g. server CPUs / automotive SoCs. The 4.42
    # scale maps a 458 mm² ORIN-class die onto a ~45×45 mm body, and a
    # 712 mm² EPYC die complement onto its 4411 mm² SP3 package.
    PackageClass("fcbga", cpa_kg_per_cm2=0.0787, area_scale=4.42),
    # EPYC-style multi-die server package: the SP3 body is ~6.2× the
    # total silicon area (Sec. 4.1 inputs).
    PackageClass("server_mcm", cpa_kg_per_cm2=0.0787, area_scale=6.20),
    # Mobile package-on-package (Lakefield: 12×12 mm over a 92 mm² base
    # die, scale ≈ 1.57).
    PackageClass("pop_mobile", cpa_kg_per_cm2=0.0787, area_scale=1.57),
    # Fan-out wafer-level package: RDL is the substrate, small margin.
    PackageClass("fowlp", cpa_kg_per_cm2=0.060, area_scale=1.30),
)


def _canonical_package(name) -> str:
    return str(name).strip().lower()


def PackagingTable(
    classes: Iterable[PackageClass] = _BUILTIN_CLASSES,
) -> RecordTable:
    """Package classes by (case-insensitive) name."""
    return RecordTable(
        classes, PackageClass, _canonical_package,
        unknown_name("package class"),
    )


DEFAULT_PACKAGING_TABLE = PackagingTable()
