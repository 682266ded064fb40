"""Davis/Donath stochastic wirelength model (substrate for Eq. 10).

3D-Carbon estimates the BEOL metal-layer count from the average on-chip
interconnect length L̄ (Stow ISVLSI'16, Eq. 10). We implement the standard
closed-form wirelength *distribution* for a homogeneous √N×√N gate array
(J. Davis et al., IEEE T-ED 1998, derived from Rent's rule):

    i(l) ∝ M(l) · l^(2p-4)

with the geometric site function

    M(l) = l³/3 − 2√N·l² + 2N·l          for 1 ≤ l < √N
    M(l) = (2√N − l)³ / 3                for √N ≤ l ≤ 2√N

where ``l`` is the Manhattan wire length in gate pitches, ``N`` the gate
count, and ``p`` the Rent exponent. The average length is the ratio of the
first moment to the zeroth moment of ``i``; the distribution's overall
normalization cancels, so the average needs no Rent coefficient. Both
moments reduce to sums of power-function integrals which we evaluate in
closed form — no quadrature, exact for any ``N`` and ``p``.

The model also exposes the distribution itself (for the example scripts and
property tests) and the classic power-law approximation L̄ ∝ N^(p−1/2)
(Donath) used as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from ..errors import DesignError, ParameterError


def _validate(gate_count: float, rent_exponent: float) -> None:
    if gate_count < 4:
        raise ParameterError(
            f"wirelength model needs at least 4 gates, got {gate_count}"
        )
    if not 0.0 < rent_exponent < 1.0:
        raise ParameterError(
            f"Rent exponent must lie in (0, 1), got {rent_exponent}"
        )


def _power_integral(exponent: float, lower: float, upper: float) -> float:
    """∫ l^exponent dl over [lower, upper], exact, handling exponent = −1."""
    if lower <= 0 or upper < lower:
        raise ParameterError(
            f"integration bounds must satisfy 0 < lower <= upper, "
            f"got [{lower}, {upper}]"
        )
    if math.isclose(exponent, -1.0, abs_tol=1e-12):
        return math.log(upper / lower)
    e1 = exponent + 1.0
    return (upper**e1 - lower**e1) / e1


@lru_cache(maxsize=4096)
def _region_moments(gate_count: float, rent_exponent: float, moment: int) -> float:
    """∫ M(l)·l^(2p−4+moment) dl over the full support [1, 2√N].

    Memoized on ``(gate_count, rent_exponent, moment)``: the moments are
    the hot inner loop of every BEOL estimate, and design-space studies
    re-evaluate the same (N, p) pairs thousands of times.
    """
    n = float(gate_count)
    root_n = math.sqrt(n)
    base = 2.0 * rent_exponent - 4.0 + moment

    # Region 1: 1 <= l < sqrt(N); M(l) = l^3/3 - 2*sqrt(N)*l^2 + 2*N*l.
    region1 = (
        _power_integral(base + 3.0, 1.0, root_n) / 3.0
        - 2.0 * root_n * _power_integral(base + 2.0, 1.0, root_n)
        + 2.0 * n * _power_integral(base + 1.0, 1.0, root_n)
    )

    # Region 2: sqrt(N) <= l <= 2*sqrt(N);
    # M(l) = (2*sqrt(N) - l)^3 / 3
    #      = (8*N^1.5 - 12*N*l + 6*sqrt(N)*l^2 - l^3) / 3.
    region2 = (
        8.0 * n * root_n * _power_integral(base, root_n, 2.0 * root_n)
        - 12.0 * n * _power_integral(base + 1.0, root_n, 2.0 * root_n)
        + 6.0 * root_n * _power_integral(base + 2.0, root_n, 2.0 * root_n)
        - _power_integral(base + 3.0, root_n, 2.0 * root_n)
    ) / 3.0

    return region1 + region2


def average_wirelength_gate_pitches(
    gate_count: float, rent_exponent: float
) -> float:
    """Average point-to-point wirelength L̄ in units of gate pitches.

    Exact first-over-zeroth moment of the Davis distribution. Grows roughly
    as N^(p−1/2) for p > 0.5 and saturates to O(1) for p < 0.5.
    """
    _validate(gate_count, rent_exponent)
    try:
        numerator = _region_moments(gate_count, rent_exponent, moment=1)
        denominator = _region_moments(gate_count, rent_exponent, moment=0)
    except OverflowError:
        raise DesignError(
            f"gate count {gate_count:g} overflows the wirelength model "
            f"(p={rent_exponent})"
        ) from None
    if denominator <= 0.0:
        raise ParameterError(
            f"degenerate wirelength distribution for N={gate_count}, "
            f"p={rent_exponent}"
        )
    return numerator / denominator


def average_wirelength_mm(
    gate_count: float, rent_exponent: float, die_area_mm2: float
) -> float:
    """Average wirelength in mm: L̄ (gate pitches) × gate pitch √(A/N)."""
    if die_area_mm2 <= 0:
        raise ParameterError(f"die area must be positive, got {die_area_mm2}")
    pitches = average_wirelength_gate_pitches(gate_count, rent_exponent)
    gate_pitch_mm = math.sqrt(die_area_mm2 / gate_count)
    return pitches * gate_pitch_mm


def donath_average_wirelength(gate_count: float, rent_exponent: float) -> float:
    """Classic Donath power-law estimate L̄ ≈ (2/9)·(7/2)·N^(p−1/2).

    Kept as an order-of-magnitude cross-check for the exact Davis moments;
    agrees within a small constant factor for 0.55 < p < 0.8.
    """
    _validate(gate_count, rent_exponent)
    return (2.0 / 9.0) * 3.5 * gate_count ** (rent_exponent - 0.5)


@dataclass(frozen=True)
class WirelengthDistribution:
    """The (unnormalized) Davis wirelength distribution for one die.

    Useful for inspection and property tests: ``pdf`` integrates to one over
    [1, 2√N]; ``support`` is that interval.
    """

    gate_count: float
    rent_exponent: float

    def __post_init__(self) -> None:
        _validate(self.gate_count, self.rent_exponent)

    @property
    def support(self) -> tuple[float, float]:
        return (1.0, 2.0 * math.sqrt(self.gate_count))

    def _site_function(self, length: float) -> float:
        n = self.gate_count
        root_n = math.sqrt(n)
        if length < 1.0 or length > 2.0 * root_n:
            return 0.0
        if length < root_n:
            return length**3 / 3.0 - 2.0 * root_n * length**2 + 2.0 * n * length
        return (2.0 * root_n - length) ** 3 / 3.0

    def density(self, length: float) -> float:
        """Unnormalized interconnect density i(l)."""
        if length <= 0.0:
            return 0.0
        return self._site_function(length) * length ** (
            2.0 * self.rent_exponent - 4.0
        )

    @cached_property
    def _normalizer(self) -> float:
        """Zeroth moment of the distribution, computed once per instance."""
        return _region_moments(self.gate_count, self.rent_exponent, moment=0)

    def pdf(self, length: float) -> float:
        """Normalized probability density of wire length ``length``."""
        return self.density(length) / self._normalizer

    def mean(self) -> float:
        """Average wirelength (gate pitches); same as the module function."""
        return average_wirelength_gate_pitches(self.gate_count, self.rent_exponent)
