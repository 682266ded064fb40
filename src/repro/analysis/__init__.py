"""Analysis extensions: sensitivity, uncertainty, configuration search."""

from .optimizer import (
    ParetoFront,
    ParetoPoint,
    ParetoSearch,
    search_designs,
)
from .sensitivity import (
    SensitivityResult,
    format_tornado,
    tornado,
)
from .uncertainty import (
    UncertaintyResult,
    comparison_robustness,
    monte_carlo,
)

__all__ = [
    "ParetoFront",
    "ParetoPoint",
    "ParetoSearch",
    "SensitivityResult",
    "UncertaintyResult",
    "comparison_robustness",
    "format_tornado",
    "monte_carlo",
    "search_designs",
    "tornado",
]
