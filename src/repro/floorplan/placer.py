"""Row-based die placement for 2.5D assemblies.

Eq. 14 needs the total adjacent-edge length ``Σ l_adjacent`` between dies on
a 2.5D substrate. Real products use hand-crafted floorplans; a simple row
placer with a fixed die gap captures the geometry the carbon model consumes
(adjacent edge lengths) while staying deterministic.

Dies are placed left-to-right in rows, tallest-first, wrapping when the row
would exceed the target aspect; every neighbouring pair is separated by
exactly ``die_gap_mm`` (Table 2's D_gap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterError
from .geometry import Rect, square_for_area


@dataclass(frozen=True)
class PlacedDie:
    """A die with its name, area and placed rectangle."""

    name: str
    rect: Rect


@dataclass(frozen=True)
class Floorplan:
    """Result of placement: placed dies plus derived geometry."""

    dies: tuple[PlacedDie, ...]
    die_gap_mm: float

    def is_overlap_free(self) -> bool:
        rects = [d.rect for d in self.dies]
        return not any(
            a.overlaps(b) for i, a in enumerate(rects) for b in rects[i + 1:]
        )


def place_dies(
    die_areas_mm2: list[float],
    die_gap_mm: float = 1.0,
    names: list[str] | None = None,
    max_row_width_mm: float | None = None,
) -> Floorplan:
    """Place square dies in gap-separated rows.

    ``max_row_width_mm`` defaults to ~√(total area)·1.5, giving a roughly
    square assembly like commercial interposers.
    """
    if not die_areas_mm2:
        raise ParameterError("place_dies needs at least one die")
    if any(a <= 0 for a in die_areas_mm2):
        raise ParameterError("all die areas must be positive")
    if die_gap_mm < 0:
        raise ParameterError(f"die gap must be >= 0, got {die_gap_mm}")
    if names is None:
        names = [f"die{i}" for i in range(len(die_areas_mm2))]
    if len(names) != len(die_areas_mm2):
        raise ParameterError("names and die areas must have equal length")

    total = sum(die_areas_mm2)
    if max_row_width_mm is None:
        max_row_width_mm = 1.5 * math.sqrt(total) + max(
            math.sqrt(a) for a in die_areas_mm2
        )

    # Sort by height descending for tighter rows, but keep (name, dims).
    items = sorted(
        zip(names, die_areas_mm2), key=lambda item: item[1], reverse=True
    )

    placed: list[PlacedDie] = []
    cursor_x = 0.0
    cursor_y = 0.0
    row_height = 0.0
    for name, area in items:
        width, height = square_for_area(area)
        if placed and cursor_x + width > max_row_width_mm:
            # Wrap to the next row.
            cursor_x = 0.0
            cursor_y += row_height + die_gap_mm
            row_height = 0.0
        placed.append(PlacedDie(name, Rect(cursor_x, cursor_y, width, height)))
        cursor_x += width + die_gap_mm
        row_height = max(row_height, height)

    return Floorplan(dies=tuple(placed), die_gap_mm=die_gap_mm)
