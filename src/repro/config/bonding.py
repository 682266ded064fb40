"""Bonding-process database: energy per area and per-bond yields (Eq. 11).

The paper's Table 2 gives the bonding energy range
``EPA^{micro/hybrid/C4}_{D2W/W2W} = 0.9–2.75 kWh/cm²`` (EVG equipment data)
and per-bond yields ``y^{micro/hybrid}_{W2W} ∈ (0, 1]``. Sec. 4.2 pins the
micro-bump values through the Lakefield validation: D2W bonding has *lower*
per-bond yield than W2W (advanced placement) but permits known-good-die
testing, so the default table uses

* micro-bump: y_D2W = 0.96, y_W2W = 0.97
* hybrid:     y_D2W = 0.95, y_W2W = 0.97
* C4 (2.5D die attach): y = 0.99 (mature flip-chip)

which reproduces the quoted effective yields (logic 89.3 %, memory 88.4 %
in D2W; 79.7 % for both dies in W2W) together with the 7/14 nm defect
densities in :mod:`repro.config.technology`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable

from ..errors import ParameterError
from .integration import AssemblyFlow, BondingMethod
from .table import RecordTable


@dataclass(frozen=True)
class BondingProcess:
    """Energy and yield of one (method, flow) bonding combination."""

    method: BondingMethod
    flow: AssemblyFlow
    epa_kwh_per_cm2: float
    bond_yield: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epa_kwh_per_cm2 <= 5.0:
            raise ParameterError(
                f"bonding EPA {self.epa_kwh_per_cm2} outside [0, 5] kWh/cm² "
                f"(Table 2 range is 0.9–2.75)"
            )
        if not 0.0 < self.bond_yield <= 1.0:
            raise ParameterError(
                f"bond yield {self.bond_yield} outside (0, 1]"
            )

    def with_overrides(self, **overrides) -> "BondingProcess":
        return replace(self, **overrides)


#: Built-in processes, in method then flow order (the order
#: :func:`repro.config.loader.parameters_to_dict` writes them in).
_BUILTIN_PROCESSES: tuple[BondingProcess, ...] = (
    # 3D stacking. Hybrid bonding needs CMP + plasma activation on both
    # faces, so it sits at the top of the EVG energy range; micro-bump
    # thermo-compression is mid-range.
    BondingProcess(BondingMethod.MICRO_BUMP, AssemblyFlow.D2W, 1.05, 0.96),
    BondingProcess(BondingMethod.MICRO_BUMP, AssemblyFlow.W2W, 0.85, 0.97),
    BondingProcess(BondingMethod.HYBRID, AssemblyFlow.D2W, 0.95, 0.95),
    BondingProcess(BondingMethod.HYBRID, AssemblyFlow.W2W, 0.70, 0.97),
    # C4 reflow is decades-mature flip-chip attach; its energy sits far
    # below the EVG advanced-bonding range. C4 used in a 3D flow (e.g.
    # base die to package) — same physics.
    BondingProcess(BondingMethod.C4, AssemblyFlow.D2W, 0.35, 0.99),
    BondingProcess(BondingMethod.C4, AssemblyFlow.W2W, 0.35, 0.99),
    # 2.5D die attach: chip-first embeds dies before RDL build-up,
    # chip-last solders finished dies onto the substrate.
    BondingProcess(BondingMethod.C4, AssemblyFlow.CHIP_FIRST, 0.25, 0.99),
    BondingProcess(BondingMethod.C4, AssemblyFlow.CHIP_LAST, 0.15, 0.99),
)


def _pair(key) -> "tuple[BondingMethod, AssemblyFlow] | None":
    """``key`` as a ``(method, flow)`` pair of enums, each part given as
    the enum or its value; None for a key of any other shape."""
    try:
        method, flow = key
        return BondingMethod(method), AssemblyFlow(flow)
    except (TypeError, ValueError):
        return None


def _bonding_key(key) -> tuple:
    """``key`` as a pair of enums, unless its method bonds nothing
    (KeyError for a key that is no such pair)."""
    pair = _pair(key)
    if pair is None:
        raise KeyError(key)
    if pair[0] is BondingMethod.NONE:
        raise ParameterError(
            "BondingMethod.NONE has no bonding process (2D or M3D design)"
        )
    return pair


def _unknown_process(key, keys) -> str:
    pair = _pair(key)
    what = repr(key) if pair is None else (
        f"({pair[0].value}, {pair[1].value})"
    )
    known = ", ".join(
        f"({m.value},{f.value})"
        for m, f in sorted(keys, key=lambda k: (k[0].value, k[1].value))
    )
    return f"no bonding process for {what}; known: {known}"


def BondingTable(
    processes: Iterable[BondingProcess] = _BUILTIN_PROCESSES,
) -> RecordTable:
    """Bonding processes by one ``(method, flow)`` key."""
    return RecordTable(
        processes, BondingProcess, _bonding_key, _unknown_process,
        key=attrgetter("method", "flow"),
    )


DEFAULT_BONDING_TABLE = BondingTable()
