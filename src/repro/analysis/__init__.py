"""Analysis extensions: sensitivity, uncertainty, configuration search."""

from .optimizer import (
    ParetoFront,
    ParetoPoint,
    ParetoSearch,
    search_designs,
)
from .sensitivity import (
    FactorSet,
    FactorSpec,
    FactorTarget,
    SensitivityFactor,
    SensitivityResult,
    default_factors,
    format_tornado,
    tornado,
)
from .uncertainty import (
    UncertaintyResult,
    comparison_robustness,
    monte_carlo,
)

__all__ = [
    "FactorSet",
    "ParetoFront",
    "ParetoPoint",
    "ParetoSearch",
    "FactorSpec",
    "FactorTarget",
    "SensitivityFactor",
    "SensitivityResult",
    "UncertaintyResult",
    "comparison_robustness",
    "default_factors",
    "format_tornado",
    "monte_carlo",
    "search_designs",
    "tornado",
]
