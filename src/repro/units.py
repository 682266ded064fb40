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
NM_PER_UM = 1000.0
NM_PER_MM = 1.0e6

#: Standard wafer diameters (mm) and the resulting areas (mm²); the paper's
#: Table 2 gives the area range 31,415.93–159,043.13 mm², i.e. 200–450 mm.
WAFER_DIAMETERS_MM = (200.0, 300.0, 450.0)

HOURS_PER_YEAR = 8766.0  # 365.25 days
HOURS_PER_DAY = 24.0

SECONDS_PER_HOUR = 3600.0

BITS_PER_BYTE = 8.0

# fJ -> kWh: 1 fJ = 1e-15 J; 1 kWh = 3.6e6 J
KWH_PER_FJ = 1.0e-15 / 3.6e6
# W -> kW
KW_PER_W = 1.0e-3


def mm2_to_cm2(area_mm2: float) -> float:
    """Convert an area from mm² to cm²."""
    return area_mm2 / MM2_PER_CM2


def cm2_to_mm2(area_cm2: float) -> float:
    """Convert an area from cm² to mm²."""
    return area_cm2 * MM2_PER_CM2


def um2_to_mm2(area_um2: float) -> float:
    """Convert an area from µm² to mm²."""
    return area_um2 / UM2_PER_MM2


def nm_to_mm(length_nm: float) -> float:
    """Convert a length from nm to mm."""
    return length_nm / NM_PER_MM


def um_to_mm(length_um: float) -> float:
    """Convert a length from µm to mm."""
    return length_um / 1000.0


def wafer_area_mm2(diameter_mm: float) -> float:
    """Area of a circular wafer of the given diameter (mm → mm²).

    Elementwise over a float64 array of diameters as well; only a scalar
    diameter is checked here (a grid checks its wafer axis when built).
    """
    if isinstance(diameter_mm, (int, float)) and diameter_mm <= 0:
        raise UnitError(f"wafer diameter must be positive, got {diameter_mm}")
    radius = diameter_mm / 2.0
    return math.pi * radius * radius


def wafer_diameter_mm(area_mm2: float) -> float:
    """Diameter of a circular wafer given its area (mm² → mm)."""
    if area_mm2 <= 0:
        raise UnitError(f"wafer area must be positive, got {area_mm2}")
    return 2.0 * math.sqrt(area_mm2 / math.pi)


# ---------------------------------------------------------------------------
# carbon / energy
# ---------------------------------------------------------------------------

def grams_per_kwh(grams: float) -> float:
    """Convert a grid carbon intensity from g CO₂/kWh to kg CO₂/kWh."""
    if grams < 0:
        raise UnitError(f"carbon intensity must be non-negative, got {grams}")
    return grams / 1000.0


def kwh_from_w_hours(power_w: float, hours: float) -> float:
    """Energy (kWh) consumed by ``power_w`` watts over ``hours`` hours."""
    if power_w < 0:
        raise UnitError(f"power must be non-negative, got {power_w}")
    if hours < 0:
        raise UnitError(f"duration must be non-negative, got {hours}")
    return power_w * KW_PER_W * hours


def years_to_hours(years: float, duty_hours_per_day: float = HOURS_PER_DAY) -> float:
    """Active hours accumulated over ``years`` at a daily duty cycle.

    ``duty_hours_per_day`` defaults to 24 (always-on); the autonomous-vehicle
    case study uses ~1 h/day of compute per Sudhakar et al. (IEEE Micro '23).
    """
    if years < 0:
        raise UnitError(f"years must be non-negative, got {years}")
    if not 0 <= duty_hours_per_day <= HOURS_PER_DAY:
        raise UnitError(
            f"duty hours/day must be within [0, 24], got {duty_hours_per_day}"
        )
    return years * 365.25 * duty_hours_per_day


# ---------------------------------------------------------------------------
# interfaces
# ---------------------------------------------------------------------------

def gbps_to_bits_per_s(gbps: float) -> float:
    """Convert Gbps to bit/s."""
    return gbps * 1.0e9


def tbps_to_gbps(tbps: float) -> float:
    """Convert Tbit/s to Gbit/s."""
    return tbps * 1000.0


def io_power_w(energy_per_bit_fj: float, data_rate_gbps: float) -> float:
    """Power of one I/O lane: energy/bit (fJ) × data rate (Gbps) → W.

    fJ/bit × bit/s = fW ⇒ multiply by 1e-15 to get W.
    """
    if energy_per_bit_fj < 0 or data_rate_gbps < 0:
        raise UnitError("I/O energy and data rate must be non-negative")
    return energy_per_bit_fj * 1.0e-15 * gbps_to_bits_per_s(data_rate_gbps)


def terabytes_per_s(bandwidth_bits_per_s: float) -> float:
    """Convert bit/s to TB/s (decimal terabytes)."""
    return bandwidth_bits_per_s / BITS_PER_BYTE / 1.0e12


def tops_to_ops(tops: float) -> float:
    """Convert tera-operations/second to operations/second."""
    return tops * 1.0e12
