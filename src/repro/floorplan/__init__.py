"""Deterministic 2.5D floorplanning (geometry for Eq. 13–14)."""

from .adjacency import adjacent_pairs, total_adjacent_length_mm
from .geometry import Rect, square_for_area
from .placer import Floorplan, PlacedDie, place_dies

__all__ = [
    "Floorplan",
    "PlacedDie",
    "Rect",
    "adjacent_pairs",
    "place_dies",
    "square_for_area",
    "total_adjacent_length_mm",
]
