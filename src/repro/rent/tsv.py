"""TSV/MIV count estimation for 3D stacks (Sec. 3.2.1, Area Estimation).

The paper distinguishes stacking styles:

* **F2B** (face-to-back): inter-tier signals must tunnel through the silicon
  bulk, so the TSV count follows Rent's rule for the terminals of the
  partitioned block (Stow ISVLSI'16): ``X_TSV = k · N_g^p``.
* **F2F** (face-to-face): inter-tier signals use bond pads in the metal
  stack; only *external* I/O (power, package signals) needs TSVs, so
  ``X_TSV`` equals the I/O number.

Each TSV occupies a keep-out square of ``(keepout · D_TSV)²`` with the
per-node TSV diameter from :mod:`repro.config.technology`.
"""

from __future__ import annotations


from ..errors import ParameterError

#: Rent coefficient (average terminals of a single gate); classic value for
#: logic netlists (Landman & Russo / Bakoglu).
DEFAULT_RENT_COEFFICIENT = 4.0

#: Keep-out ratio: TSV pitch over TSV diameter (Stow ISVLSI'16 uses 2–3×).
DEFAULT_KEEPOUT_RATIO = 2.5

#: External I/O signal count charged to F2F stacks (package-level signals
#: routed through the base die; order of a few thousand C4 sites).
DEFAULT_EXTERNAL_IO_COUNT = 2000.0


def rent_terminal_count(
    gate_count: float,
    rent_exponent: float,
    rent_coefficient: float = DEFAULT_RENT_COEFFICIENT,
) -> float:
    """Rent's rule terminal count ``T = k · N^p`` for a block of N gates."""
    if gate_count < 1:
        raise ParameterError(f"gate count must be >= 1, got {gate_count}")
    if not 0.0 < rent_exponent < 1.0:
        raise ParameterError(
            f"Rent exponent must lie in (0, 1), got {rent_exponent}"
        )
    if rent_coefficient <= 0:
        raise ParameterError(
            f"Rent coefficient must be positive, got {rent_coefficient}"
        )
    return rent_coefficient * gate_count**rent_exponent


def f2b_tsv_count(
    gate_count: float,
    rent_exponent: float,
    rent_coefficient: float = DEFAULT_RENT_COEFFICIENT,
) -> float:
    """TSV count for face-to-back stacking: Rent terminals of the tier."""
    return rent_terminal_count(gate_count, rent_exponent, rent_coefficient)


def f2f_tsv_count(io_count: float = DEFAULT_EXTERNAL_IO_COUNT) -> float:
    """TSV count for face-to-face stacking: equals the external I/O number."""
    if io_count < 0:
        raise ParameterError(f"I/O count must be >= 0, got {io_count}")
    return io_count


def tsv_area_mm2(
    tsv_count: float,
    tsv_diameter_um: float,
    keepout_ratio: float = DEFAULT_KEEPOUT_RATIO,
) -> float:
    """Total silicon area consumed by ``tsv_count`` TSVs (mm²).

    Each via blocks a ``(keepout · D)²`` square of active area.
    """
    if tsv_count < 0:
        raise ParameterError(f"TSV count must be >= 0, got {tsv_count}")
    if tsv_diameter_um <= 0:
        raise ParameterError(
            f"TSV diameter must be positive, got {tsv_diameter_um}"
        )
    if keepout_ratio < 1.0:
        raise ParameterError(
            f"keep-out ratio must be >= 1, got {keepout_ratio}"
        )
    side_mm = keepout_ratio * tsv_diameter_um / 1000.0
    return tsv_count * side_mm * side_mm


def miv_area_mm2(
    miv_count: float,
    miv_diameter_um: float,
    keepout_ratio: float = 1.5,
) -> float:
    """Area of monolithic inter-tier vias; sub-µm, usually negligible."""
    if miv_count < 0:
        raise ParameterError(f"MIV count must be >= 0, got {miv_count}")
    if miv_diameter_um <= 0 or miv_diameter_um > 1.0:
        raise ParameterError(
            f"MIV diameter must lie in (0, 1] µm (Kim DAC'21), "
            f"got {miv_diameter_um}"
        )
    side_mm = keepout_ratio * miv_diameter_um / 1000.0
    return miv_count * side_mm * side_mm
