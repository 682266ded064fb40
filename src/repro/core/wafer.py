"""Per-wafer manufacturing carbon (Eq. 6), BEOL-aware.

``C_wafer = (CI_emb · EPA + GPA + MPA) · A_wafer`` with EPA/GPA optionally
re-assembled from their FEOL and per-metal-layer components so that dies
with shallower metal stacks emit less (the 3D-Carbon refinement the paper
highlights against ACT+ in Sec. 4.1).

Monolithic 3D wafers are priced by :func:`m3d_wafer_carbon_per_cm2`:
every tier pays a (discounted) FEOL pass and its own metal stack, plus an
ILD deposition per inter-tier interface, all on a single wafer footprint
with the raw-material footprint (MPA) charged once.
"""

from __future__ import annotations

from typing import NamedTuple

from ..config.m3d import M3DParameters
from ..config.technology import ProcessNode
from ..errors import ParameterError


class WaferCarbonBreakdown(NamedTuple):
    """Per-cm² carbon components of one wafer flavour (kg CO₂/cm²).

    A named tuple rather than a dataclass: every die of every Monte-Carlo
    draw builds one, and a tuple is the cheapest immutable record.
    """

    energy_kg_per_cm2: float
    gas_kg_per_cm2: float
    material_kg_per_cm2: float

    @property
    def total_kg_per_cm2(self) -> float:
        return self.priced(1.0)

    def priced(self, ci_fab_kg_per_kwh):
        """Eq. 6 per cm², ``(CI·EPA + GPA) + MPA``, of a unit-CI breakdown.

        Only the energy term scales with the fab CI, so a breakdown built
        at ``ci = 1.0`` (energy = EPA exactly) prices any CI in this one
        affine form: a float, or a column over an array of intensities.
        A breakdown built at its own CI is priced at ``1.0``.
        """
        return (
            ci_fab_kg_per_kwh * self.energy_kg_per_cm2
            + self.gas_kg_per_cm2
        ) + self.material_kg_per_cm2


def fab_ci_error() -> ParameterError:
    """The error of a negative fab carbon intensity."""
    return ParameterError("fab carbon intensity must be >= 0")


def wafer_carbon_per_cm2(
    node: ProcessNode,
    ci_fab_kg_per_kwh: float,
    beol_layers: float | None = None,
    beol_aware: bool = True,
) -> WaferCarbonBreakdown:
    """Eq. 6 per unit area, optionally scaled to the actual metal count."""
    if ci_fab_kg_per_kwh < 0:
        raise fab_ci_error()
    if beol_layers is not None and beol_layers < 0:
        raise ParameterError("BEOL layer count must be >= 0")

    if not beol_aware or beol_layers is None:
        epa = node.epa_kwh_per_cm2
        gpa = node.gpa_kg_per_cm2
    else:
        epa_feol, epa_per_layer, gpa_feol, gpa_per_layer = node.beol_split
        epa = epa_feol + beol_layers * epa_per_layer
        gpa = gpa_feol + beol_layers * gpa_per_layer
    return WaferCarbonBreakdown(
        ci_fab_kg_per_kwh * epa, gpa, node.mpa_kg_per_cm2
    )


def m3d_wafer_carbon_per_cm2(
    tiers: "list[tuple[ProcessNode, float]]",
    ci_fab_kg_per_kwh: float,
    m3d: M3DParameters,
    beol_aware: bool = True,
) -> WaferCarbonBreakdown:
    """Sequential-manufacturing variant of Eq. 6 for M3D (per footprint cm²).

    ``tiers`` lists ``(node, beol_layers)`` from bottom to top; tier 0 pays
    a full FEOL pass, every further tier pays ``feol_overhead`` of its own
    node's FEOL plus one ILD interface. The raw wafer material (MPA) is
    charged once, for the bottom tier's substrate.
    """
    if ci_fab_kg_per_kwh < 0:
        raise fab_ci_error()
    n_tiers = len(tiers)
    if n_tiers < 2:
        raise ParameterError(f"M3D needs >= 2 tiers, got {n_tiers}")
    if n_tiers > m3d.max_tiers:
        raise ParameterError(
            f"M3D supports at most {m3d.max_tiers} tiers, got {n_tiers}"
        )
    if any(layers < 0 for _, layers in tiers):
        raise ParameterError("BEOL layer counts must be >= 0")

    epa = 0.0
    gpa = 0.0
    for index, (node, layers) in enumerate(tiers):
        feol_share = 1.0 if index == 0 else m3d.feol_overhead
        if beol_aware:
            epa_feol, epa_per_layer, gpa_feol, gpa_per_layer = node.beol_split
            epa += epa_feol * feol_share + layers * epa_per_layer
            gpa += gpa_feol * feol_share + layers * gpa_per_layer
        else:
            # Without BEOL awareness, charge full per-tier wafer processing.
            epa += node.epa_kwh_per_cm2 * feol_share
            gpa += node.gpa_kg_per_cm2 * feol_share
    epa += (n_tiers - 1) * m3d.ild_epa_kwh_per_cm2
    return WaferCarbonBreakdown(
        ci_fab_kg_per_kwh * epa, gpa, tiers[0][0].mpa_kg_per_cm2
    )
