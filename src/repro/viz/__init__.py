"""Plain-text bar charts of carbon reports (Fig. 4 and Fig. 5 shapes)."""

from .ascii import grouped_comparison, stacked_bars

__all__ = ["grouped_comparison", "stacked_bars"]
