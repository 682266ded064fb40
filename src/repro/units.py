"""Unit conversion helpers shared across the 3D-Carbon model.

The model mixes die-scale geometry (mm², µm, nm), fab-scale carbon factors
(kg CO₂ per cm², kWh per cm²), interface physics (Gbps, fJ/bit) and
lifecycle accounting (kWh, kg CO₂, years). Keeping every conversion in one
module avoids the classic power-of-ten bugs of area-per-area models.

Conventions used throughout the package:

* areas are stored in **mm²** on design objects and converted to **cm²**
  only where a per-cm² carbon/energy factor is applied;
* lengths on dies are **mm**, feature sizes are **nm**, vias/pitches **µm**;
* energy is **kWh**, power **W**, carbon **kg CO₂-equivalent**;
* carbon intensity is **kg CO₂ per kWh** internally (grids are usually
  published in g CO₂/kWh — use :func:`grams_per_kwh`).
"""

from __future__ import annotations

import math

from .errors import UnitError

# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

MM2_PER_CM2 = 100.0
UM2_PER_MM2 = 1.0e6

#: Standard wafer diameters (mm) and the resulting areas (mm²); the paper's
#: Table 2 gives the area range 31,415.93–159,043.13 mm², i.e. 200–450 mm.
WAFER_DIAMETERS_MM = (200.0, 300.0, 450.0)

BITS_PER_BYTE = 8.0


def mm2_to_cm2(area_mm2: float) -> float:
    """Convert an area from mm² to cm²."""
    return area_mm2 / MM2_PER_CM2


def um2_to_mm2(area_um2: float) -> float:
    """Convert an area from µm² to mm²."""
    return area_um2 / UM2_PER_MM2


def wafer_area_mm2(diameter_mm: float) -> float:
    """Area of a circular wafer of the given diameter (mm → mm²).

    Elementwise over a float64 array of diameters as well; only a scalar
    diameter is checked here (a grid checks its wafer axis when built).
    """
    if isinstance(diameter_mm, (int, float)) and diameter_mm <= 0:
        raise UnitError(f"wafer diameter must be positive, got {diameter_mm}")
    radius = diameter_mm / 2.0
    return math.pi * radius * radius


# ---------------------------------------------------------------------------
# carbon / energy
# ---------------------------------------------------------------------------

def grams_per_kwh(grams: float) -> float:
    """Convert a grid carbon intensity from g CO₂/kWh to kg CO₂/kWh."""
    if grams < 0:
        raise UnitError(f"carbon intensity must be non-negative, got {grams}")
    return grams / 1000.0


# ---------------------------------------------------------------------------
# interfaces
# ---------------------------------------------------------------------------

def gbps_to_bits_per_s(gbps: float) -> float:
    """Convert Gbps to bit/s."""
    return gbps * 1.0e9


def terabytes_per_s(bandwidth_bits_per_s: float) -> float:
    """Convert bit/s to TB/s (decimal terabytes)."""
    return bandwidth_bits_per_s / BITS_PER_BYTE / 1.0e12
