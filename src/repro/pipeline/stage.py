"""The evaluation context a carbon backend prices.

:class:`EvalContext` holds one evaluation point's inputs — design,
parameter set, fab location (with its carbon intensity looked up) and
optional workload. A backend's :meth:`~repro.pipeline.backends.
CarbonBackend.price` reads it beside the point's shared resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign
from ..core.operational import Workload


@dataclass(frozen=True)
class EvalContext:
    """Everything one evaluation point exposes to a backend.

    ``ci_fab`` is pre-resolved from ``fab_location`` so pricing stays a
    pure function of values (a location *name* is a lookup, not a value).
    """

    design: ChipDesign
    params: ParameterSet
    fab_location: "str | float"
    ci_fab: float
    workload: "Workload | None" = None

    @classmethod
    def build(
        cls,
        design: ChipDesign,
        params: "ParameterSet | None" = None,
        fab_location: "str | float" = "taiwan",
        workload: "Workload | None" = None,
    ) -> "EvalContext":
        params = params if params is not None else DEFAULT_PARAMETERS
        return cls(
            design=design,
            params=params,
            fab_location=fab_location,
            ci_fab=params.grid(fab_location).kg_co2_per_kwh,
            workload=workload,
        )
