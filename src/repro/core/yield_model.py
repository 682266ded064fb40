"""Yield models: Eq. 15 and the stacking compositions of Table 3.

The raw die/substrate yield follows the negative-binomial distribution of
the Chiplet Actuary model (Feng DAC'22):

    y = (1 + A·D₀/α)^(−α)

with area ``A`` in cm², defect density ``D₀`` in 1/cm², and clustering
parameter ``α``. On top of it, Table 3 composes *effective* yields that
account for when defects become detectable:

* **3D D2W** — dies are tested before stacking (known good die), but die i
  must additionally survive the N−i bonding steps that happen after it is
  placed: ``Y_die_i = y_die_i · y_bond^(N−i)``.
* **3D W2W** — wafers are bonded blind, so every die inherits the whole
  stack's fate: ``Y_die_i = Π_j y_die_j · y_bond^(N−1)`` (identical for the
  bonding yield column: bonding energy is wasted on stacks that were
  already dead).
* **2.5D chip-first** — dies are embedded before the substrate is built, so
  a substrate loss kills them: ``Y_die_i = y_die_i · y_substrate``; there
  is no separate bond step (``Y_bond = 1``).
* **2.5D chip-last** — dies are attached to a finished substrate; any of
  the N bond steps failing scraps the populated assembly:
  ``Y_die_i = y_die_i · Π_j y_bond_j``, and the substrate also divides by
  the bond product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config.integration import AssemblyFlow
from ..errors import DesignError, ParameterError
from ..units import mm2_to_cm2


def die_yield(
    area_mm2: float, defect_density_per_cm2: float, alpha: float
) -> float:
    """Eq. 15: negative-binomial yield of one die."""
    if area_mm2 <= 0:
        raise ParameterError(f"die area must be positive, got {area_mm2}")
    if defect_density_per_cm2 < 0:
        raise ParameterError(
            f"defect density must be >= 0, got {defect_density_per_cm2}"
        )
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    area_cm2 = mm2_to_cm2(area_mm2)
    return (1.0 + area_cm2 * defect_density_per_cm2 / alpha) ** (-alpha)


@dataclass(frozen=True)
class StackYields:
    """Effective yields after Table 3 composition.

    ``per_die[i]`` divides die i's manufacturing carbon in Eq. 4;
    ``per_bond[i]`` divides bond step i's carbon in Eq. 11 (3D stacks have
    N−1 steps, 2.5D assemblies N die-attach steps); ``substrate`` divides
    the interposer/RDL carbon in the 2.5D models.
    """

    per_die: tuple[float, ...]
    per_bond: tuple[float, ...]
    substrate: float | None = None

    def __post_init__(self) -> None:
        for label, values in (("die", self.per_die), ("bond", self.per_bond)):
            for y in values:
                if not 0.0 < y <= 1.0:
                    raise ParameterError(
                        f"effective {label} yield {y} outside (0, 1]"
                    )
        if self.substrate is not None and not 0.0 < self.substrate <= 1.0:
            raise ParameterError(
                f"effective substrate yield {self.substrate} outside (0, 1]"
            )


def _check_yields(label: str, values: list[float]) -> None:
    for y in values:
        if not 0.0 < y <= 1.0:
            raise ParameterError(f"{label} yield {y} outside (0, 1]")


def three_d_stack_yields(
    die_yields: list[float], bond_yield: float, flow: AssemblyFlow
) -> StackYields:
    """Table 3 (top half): effective yields of an N-die 3D stack."""
    n = len(die_yields)
    if n < 2:
        raise DesignError(f"a 3D stack needs >= 2 dies, got {n}")
    _check_yields("die", die_yields)
    _check_yields("bond", [bond_yield])

    if flow is AssemblyFlow.D2W:
        per_die = tuple(
            y * bond_yield ** (n - i) for i, y in enumerate(die_yields, start=1)
        )
        per_bond = tuple(bond_yield ** (n - i) for i in range(1, n))
        return StackYields(per_die=per_die, per_bond=per_bond)

    if flow is AssemblyFlow.W2W:
        stack = math.prod(die_yields) * bond_yield ** (n - 1)
        return StackYields(
            per_die=tuple(stack for _ in die_yields),
            per_bond=tuple(stack for _ in range(n - 1)),
        )

    raise DesignError(f"3D stacks use D2W or W2W assembly, got {flow.value}")


def two_five_d_yields(
    die_yields: list[float],
    substrate_yield: float,
    bond_yield: float,
    flow: AssemblyFlow,
) -> StackYields:
    """Table 3 (bottom half): effective yields of a 2.5D assembly."""
    n = len(die_yields)
    if n < 2:
        raise DesignError(f"a 2.5D assembly needs >= 2 dies, got {n}")
    _check_yields("die", die_yields)
    _check_yields("substrate", [substrate_yield])
    _check_yields("bond", [bond_yield])

    if flow is AssemblyFlow.CHIP_FIRST:
        per_die = tuple(y * substrate_yield for y in die_yields)
        return StackYields(
            per_die=per_die,
            per_bond=tuple(1.0 for _ in range(n)),
            substrate=substrate_yield,
        )

    if flow is AssemblyFlow.CHIP_LAST:
        bond_product = bond_yield**n
        per_die = tuple(y * bond_product for y in die_yields)
        return StackYields(
            per_die=per_die,
            per_bond=tuple(bond_product for _ in range(n)),
            substrate=substrate_yield * bond_product,
        )

    raise DesignError(
        f"2.5D assemblies use chip-first or chip-last, got {flow.value}"
    )
