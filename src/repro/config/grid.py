"""Electrical-grid carbon intensity database (CI_emb / CI_use, Table 2).

The paper sources fab and use-phase carbon intensities from industry
environmental reports; the quoted range is 30–700 g CO₂/kWh. This module
provides a location-keyed table spanning that range plus helpers to express
intensities directly. Values are annual grid averages (IEA-style); fab
locations map to the grids of the major foundry sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import ParameterError
from .table import RecordTable, unknown_name
from ..units import grams_per_kwh

#: Paper Table 2 bounds, used for validation.
MIN_G_PER_KWH = 5.0
MAX_G_PER_KWH = 900.0


@dataclass(frozen=True)
class GridProfile:
    """Carbon intensity of one electrical grid."""

    name: str
    g_co2_per_kwh: float
    description: str = ""

    def __post_init__(self) -> None:
        if not MIN_G_PER_KWH <= self.g_co2_per_kwh <= MAX_G_PER_KWH:
            raise ParameterError(
                f"{self.name}: carbon intensity {self.g_co2_per_kwh} g/kWh "
                f"outside [{MIN_G_PER_KWH}, {MAX_G_PER_KWH}]"
            )

    @property
    def kg_co2_per_kwh(self) -> float:
        """Carbon intensity in kg CO₂/kWh (internal unit)."""
        return grams_per_kwh(self.g_co2_per_kwh)


_BUILTIN_GRIDS: tuple[GridProfile, ...] = (
    GridProfile("world", 475.0, "world average grid"),
    GridProfile("taiwan", 509.0, "TSMC fab sites (Taipower grid)"),
    GridProfile("south_korea", 415.0, "Samsung fab sites"),
    GridProfile("usa", 380.0, "US average grid"),
    GridProfile("usa_az", 350.0, "Arizona (Intel/TSMC US fabs)"),
    GridProfile("ireland", 296.0, "Intel Leixlip"),
    GridProfile("israel", 558.0, "Intel Kiryat Gat"),
    GridProfile("china", 555.0, "SMIC fab sites"),
    GridProfile("japan", 462.0, "Kioxia/Sony fab sites"),
    GridProfile("germany", 366.0, "European fabs"),
    GridProfile("india", 700.0, "coal-heavy grid upper bound"),
    GridProfile("iceland", 30.0, "near-fully renewable grid (Table 2 lower bound)"),
    GridProfile("sweden", 45.0, "hydro/nuclear grid"),
    GridProfile("france", 85.0, "nuclear-heavy grid"),
    GridProfile("renewable_charging", 50.0,
                "renewable-leaning EV charging mix used for the AV case study"),
)

#: Named grids spanning Table 2's 30–700 g/kWh range, cleanest first:
#: the default axis of the fab-location sweep and the grid benches.
TABLE2_LOCATIONS = ("iceland", "france", "usa", "taiwan", "india")


def _canonical_grid(location) -> str:
    """Normalize a spelling to the table key (``" South Korea"`` →
    ``"south_korea"``)."""
    return str(location).strip().lower().replace(" ", "_")


def GridTable(grids: Iterable[GridProfile] = _BUILTIN_GRIDS) -> RecordTable:
    """Grid profiles by location name. A raw g/kWh number is no key:
    :meth:`repro.config.parameters.ParameterSet.grid` turns it into a
    profile."""
    return RecordTable(
        grids, GridProfile, _canonical_grid, unknown_name("grid location")
    )


DEFAULT_GRID_TABLE = GridTable()
