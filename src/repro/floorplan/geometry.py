"""Rectangle geometry primitives for the 2.5D floorplanner."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterError


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: lower-left corner (x, y), width, height (mm)."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ParameterError(
                f"rectangle dimensions must be positive, "
                f"got {self.width}×{self.height}"
            )

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height

    def overlaps(self, other: "Rect", tolerance: float = 1e-9) -> bool:
        """True when the interiors intersect (touching edges don't count)."""
        return (
            self.x < other.x2 - tolerance
            and other.x < self.x2 - tolerance
            and self.y < other.y2 - tolerance
            and other.y < self.y2 - tolerance
        )

    def facing_length(self, other: "Rect", max_gap: float) -> float:
        """Length of edge facing ``other`` across a gap of at most ``max_gap``.

        Two dies are *adjacent* (for Eq. 14) when a pair of parallel edges
        face each other across a gap ≤ ``max_gap``; the adjacent length is
        the overlap of their projections on the shared axis.
        """
        if max_gap < 0:
            raise ParameterError(f"max_gap must be >= 0, got {max_gap}")
        # Horizontal neighbours (gap along x): overlap of y-projections.
        x_gap = max(other.x - self.x2, self.x - other.x2)
        y_overlap = min(self.y2, other.y2) - max(self.y, other.y)
        if 0.0 <= x_gap <= max_gap and y_overlap > 0.0:
            return y_overlap
        # Vertical neighbours (gap along y): overlap of x-projections.
        y_gap = max(other.y - self.y2, self.y - other.y2)
        x_overlap = min(self.x2, other.x2) - max(self.x, other.x)
        if 0.0 <= y_gap <= max_gap and x_overlap > 0.0:
            return x_overlap
        return 0.0


def square_for_area(area_mm2: float) -> tuple[float, float]:
    """Width/height of the square die realizing ``area_mm2``."""
    if area_mm2 <= 0:
        raise ParameterError(f"area must be positive, got {area_mm2}")
    side = math.sqrt(area_mm2)
    return (side, side)
