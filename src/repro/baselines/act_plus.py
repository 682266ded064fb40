"""ACT+ baseline (Elgamal et al., 2023) — multi-die extension of ACT.

The paper characterizes ACT+ as estimating "2.5D IC carbon footprint from
2D ICs based on cost comparison" while it "simplistically treats 3D stacked
dies as 2D" (Sec. 1). Concretely, relative to 3D-Carbon:

* every die is priced with the plain ACT model (fixed yield, no BEOL or
  dies-per-wafer awareness);
* 2.5D assemblies scale the summed die carbon by a cost-derived packaging
  overhead factor instead of modeling bonding/substrate manufacturing;
* 3D stacks are the plain sum of their dies — no stacking yields, no
  bonding energy, no sequential-manufacturing modeling;
* packaging stays at ACT's fixed 0.15 kg per package.

This reproduces both validation observations of Sec. 4: ACT+ reports far
less packaging carbon for EPYC (0.15 vs 3.47 kg) and cannot distinguish
D2W from W2W for Lakefield.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign
from ..core.resolve import resolve_design
from ..core.wafer import fab_ci_error
from .act import ACT_PACKAGING_KG, ActEstimate, act_estimate

#: Cost-comparison multiplier ACT+ applies to 2.5D die carbon (the extra
#: known-good-die and assembly cost of chiplet integration, Elgamal'23).
ACT_PLUS_25D_COST_FACTOR = 1.05


@dataclass(frozen=True)
class ActPlusEstimate:
    """ACT+ result for a (possibly multi-die) design."""

    design_name: str
    integration: str
    act: ActEstimate
    cost_factor: float

    @property
    def die_kg(self) -> float:
        return self.act.die_kg * self.cost_factor

    @property
    def packaging_kg(self) -> float:
        return self.act.packaging_kg

    @property
    def total_kg(self) -> float:
        return self.die_kg + self.packaging_kg

    def breakdown(self) -> dict[str, float]:
        return {
            "die": self.die_kg,
            "bonding": 0.0,
            "packaging": self.packaging_kg,
            "interposer": 0.0,
        }


def act_plus_estimate(
    design: ChipDesign,
    ci_fab_kg_per_kwh: float,
    params: ParameterSet | None = None,
    packaging_kg: float = ACT_PACKAGING_KG,
    resolved=None,
) -> ActPlusEstimate:
    """ACT+ embodied estimate for any :class:`ChipDesign`.

    Die areas are resolved with the shared area model so that gate-count
    designs are comparable; everything downstream of the area is ACT's
    simplified accounting. ``resolved`` (optional) reuses an existing
    resolution of the same (design, params) pair — the backend pipeline
    passes its shared resolve-stage output so cross-model comparisons
    resolve each design once.
    """
    params = params if params is not None else DEFAULT_PARAMETERS
    if ci_fab_kg_per_kwh < 0:
        raise fab_ci_error()
    if resolved is None:
        resolved = resolve_design(design, params)
    dies = [
        (rdie.name, rdie.node.name, rdie.area_mm2) for rdie in resolved.dies
    ]
    act = act_estimate(
        dies, ci_fab_kg_per_kwh, params, packaging_kg=packaging_kg
    )
    cost_factor = (
        ACT_PLUS_25D_COST_FACTOR if resolved.spec.is_2_5d else 1.0
    )
    return ActPlusEstimate(
        design_name=design.name,
        integration=resolved.spec.name,
        act=act,
        cost_factor=cost_factor,
    )
