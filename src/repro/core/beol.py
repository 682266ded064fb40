"""BEOL metal-layer-count estimation (Eq. 10).

``N_BEOL = N_fan · ω · N_g · L̄ / (η · A_die)`` (Stow ISVLSI'16) with

* ``N_fan`` — average fan-out (node parameter, Table 2: 1–5);
* ``ω = 3.6λ`` — routable wire pitch;
* ``L̄`` — average wirelength from the Davis distribution
  (:mod:`repro.rent.davis`), converted to physical units with the gate
  pitch √(A/N);
* ``η`` — router/wiring efficiency.

The estimate is clamped to the node's manufacturable range, then reduced by
the integration technology's ``beol_layers_saved`` (fine-pitch vertical
connections replace top global metal, Kim DAC'21). Reducing metal layers is
one of the paper's key embodied-carbon levers (Sec. 3.2.1), so the value is
kept fractional — carbon scales continuously with routing demand — while a
``rounded`` convenience is provided for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config.technology import ProcessNode
from ..errors import DesignError
from ..rent.davis import average_wirelength_mm

#: No manufacturable process has fewer metal layers than this.
MIN_BEOL_LAYERS = 2.0


@dataclass(frozen=True)
class BeolEstimate:
    """Estimated metal stack for one die."""

    layers: float
    raw_layers: float           # before clamping/savings
    average_wirelength_mm: float
    clamped_at_max: bool


def estimate_beol_layers(
    gate_count: float,
    die_area_mm2: float,
    node: ProcessNode,
    layers_saved: int = 0,
    override: int | None = None,
) -> BeolEstimate:
    """Eq. 10 with clamping; ``override`` short-circuits the estimate."""
    if die_area_mm2 <= 0:
        raise DesignError(f"die area must be positive, got {die_area_mm2}")
    if gate_count < 4:
        raise DesignError(
            f"BEOL estimation needs >= 4 gates, got {gate_count}"
        )
    if override is not None:
        if override < 1:
            raise DesignError(f"BEOL override must be >= 1, got {override}")
        return BeolEstimate(
            layers=float(override),
            raw_layers=float(override),
            average_wirelength_mm=math.nan,
            clamped_at_max=False,
        )

    avg_wl_mm = average_wirelength_mm(
        gate_count, node.rent_exponent, die_area_mm2
    )
    wire_pitch_mm = node.wire_pitch_nm * 1.0e-6
    raw = (
        node.fanout * wire_pitch_mm * gate_count * avg_wl_mm
        / (node.wiring_efficiency * die_area_mm2)
    )
    clamped = min(raw, float(node.max_beol_layers))
    layers = max(MIN_BEOL_LAYERS, clamped - float(layers_saved))
    return BeolEstimate(
        layers=layers,
        raw_layers=raw,
        average_wirelength_mm=avg_wl_mm,
        clamped_at_max=raw > node.max_beol_layers,
    )
