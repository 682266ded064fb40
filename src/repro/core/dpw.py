"""Dies-per-wafer geometry (Eq. 5).

``DPW = π·(d/2)²/A − π·d/√(2·A)`` for wafer diameter ``d`` and die area
``A`` (Stow ISVLSI'16): gross dies by area minus the partial dies lost on
the wafer circumference. The same formula prices interposers
(interposer-per-wafer, Sec. 3.2.1).

:func:`dpw_formula` is the one body of Eq. 5. It takes the wafer
diameter as a float or as a float64 array (the vectorized core's wafer
axis); the die area is always a float. :func:`dies_per_wafer` is the
checked, memoized scalar wrapper.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..errors import DesignError, ParameterError
from ..units import wafer_area_mm2


def dpw_formula(wafer_diameter_mm, die_area_mm2: float):
    """Eq. 5, unchecked: a float, or a column over an array of diameters."""
    gross = wafer_area_mm2(wafer_diameter_mm) / die_area_mm2
    edge_loss = math.pi * wafer_diameter_mm / math.sqrt(2.0 * die_area_mm2)
    return gross - edge_loss


def dpw_error(
    wafer_diameter_mm: float, die_area_mm2: float, dpw: float
) -> DesignError:
    """The error of a die that does not fit its wafer (``dpw < 1``)."""
    return DesignError(
        f"die of {die_area_mm2:.0f} mm² does not fit a "
        f"{wafer_diameter_mm:.0f} mm wafer (DPW = {dpw:.2f})"
    )


@lru_cache(maxsize=8192)
def dies_per_wafer(wafer_diameter_mm: float, die_area_mm2: float) -> float:
    """Eq. 5: number of whole dies on one wafer.

    Raises :class:`DesignError` when the die is so large that the formula
    yields less than one die per wafer (the design cannot be manufactured
    on this wafer size).

    Memoized: the formula is pure in its two floats and batch studies
    price the same (wafer, die-area) pair for every draw or grid point.
    """
    if wafer_diameter_mm <= 0:
        raise ParameterError(
            f"wafer diameter must be positive, got {wafer_diameter_mm}"
        )
    if die_area_mm2 <= 0:
        raise ParameterError(f"die area must be positive, got {die_area_mm2}")
    dpw = dpw_formula(wafer_diameter_mm, die_area_mm2)
    if dpw < 1.0:
        raise dpw_error(wafer_diameter_mm, die_area_mm2, dpw)
    return dpw


def effective_area_per_die_mm2(
    wafer_diameter_mm, die_area_mm2: float, dpw=dies_per_wafer
):
    """Wafer area charged to each die: A_wafer / DPW (mm²).

    Always exceeds the die area because circumference losses are shared
    across the good dies — the quantity that multiplies the per-area wafer
    carbon in Eq. 4. ``dpw`` is Eq. 5: the checked scalar
    :func:`dies_per_wafer` by default; the vectorized core passes one
    that takes a diameter column and masks the dies that do not fit.
    """
    count = dpw(wafer_diameter_mm, die_area_mm2)
    return wafer_area_mm2(wafer_diameter_mm) / count
