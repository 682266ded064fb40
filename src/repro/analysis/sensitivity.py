"""One-at-a-time sensitivity analysis ("tornado" study).

An early-design-stage carbon model is only as credible as its inputs;
this module quantifies how much each parameter moves the result. For a
design (and optional workload), every registered parameter is perturbed
to the low/high end of its plausible range while the rest stay at their
defaults, and the swing in total carbon is recorded:

    swing = C(high) − C(low)
    elasticity ≈ (ΔC/C) / (Δp/p) at the default point

Factors are :class:`~repro.uncertainty.factors.FactorSpec` records — the
default set here is 3D-Carbon's Table 2 set
(:func:`~repro.uncertainty.factors.table2_factor_set`), and passing
``backend=`` runs the study over that backend's *own* factor set (the
ACT intensity table, the GaBi CPA spread, ...), pricing each swing under
that model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..core.report import render_swings
from ..uncertainty.factors import FactorSet


def _factors_for(design: ChipDesign, params: ParameterSet,
                 backend) -> FactorSet:
    """The factor set a study defaults to: the backend's own."""
    from ..pipeline.registry import resolve_backend

    return resolve_backend(backend).factor_set(design, params)


@dataclass(frozen=True)
class SensitivityResult:
    """Swing of one factor around the default evaluation."""

    factor: str
    low_kg: float
    base_kg: float
    high_kg: float
    low_multiplier: float
    high_multiplier: float

    @property
    def swing_kg(self) -> float:
        return self.high_kg - self.low_kg

    @property
    def relative_swing(self) -> float:
        return self.swing_kg / self.base_kg if self.base_kg else 0.0

    @property
    def elasticity(self) -> float:
        """d(ln C)/d(ln p) estimated over the sampled interval."""
        span = self.high_multiplier - self.low_multiplier
        if span <= 0 or self.base_kg == 0:
            return 0.0
        return (self.swing_kg / self.base_kg) / span

    def to_dict(self) -> dict:
        """The factor entry of the ``/tornado`` payload."""
        return {
            "factor": self.factor,
            "low_multiplier": self.low_multiplier,
            "high_multiplier": self.high_multiplier,
            "low_kg": self.low_kg,
            "high_kg": self.high_kg,
            "swing_kg": self.swing_kg,
        }


def tornado(
    design: ChipDesign,
    factors=None,
    workload: Workload | None = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    evaluator=None,
    backend=None,
) -> "list[SensitivityResult]":
    """Run the one-at-a-time study; results sorted by swing, largest first.

    Routed through a :class:`repro.engine.BatchEvaluator` (pass one to
    share caches across studies): factors that only touch embodied- or
    use-phase parameters reuse the base design resolution instead of
    re-running the wirelength pipeline 2×(factors)+1 times.

    ``backend`` prices the swings under any registered carbon backend
    and, when ``factors`` is omitted, swings that backend's own factor
    set. Model-scoped factors (backend constants) evaluate through a
    per-extreme derived backend instead of a perturbed parameter set.
    """
    from ..engine import BatchEvaluator
    from ..pipeline.registry import resolve_backend

    params = params if params is not None else DEFAULT_PARAMETERS
    if factors is None:
        factors = _factors_for(design, params, backend)
    factors = list(factors)
    if evaluator is None:
        evaluator = BatchEvaluator(params=params, fab_location=fab_location)

    def _evaluate(point_params: ParameterSet, point_backend) -> float:
        return evaluator.backend_total_kg(
            design, point_backend, workload=workload, params=point_params,
            fab_location=fab_location,
        )

    model_base = (
        resolve_backend(backend)
        if any(f.target.is_model for f in factors) else None
    )

    def _evaluate_factor(factor, multiplier: float) -> float:
        if factor.target.is_model:
            derived = model_base.with_model_multipliers(
                {factor.target.field: multiplier}
            )
            return _evaluate(params, derived)
        return _evaluate(factor.apply(params, multiplier), backend)

    base = _evaluate(params, backend)
    results = []
    for factor in factors:
        results.append(
            SensitivityResult(
                factor=factor.name,
                low_kg=_evaluate_factor(factor, factor.low),
                base_kg=base,
                high_kg=_evaluate_factor(factor, factor.high),
                low_multiplier=factor.low,
                high_multiplier=factor.high,
            )
        )
    results.sort(key=lambda r: abs(r.swing_kg), reverse=True)
    return results


def format_tornado(results: "list[SensitivityResult]") -> str:
    """Text tornado chart (the ``swings`` renderer)."""
    return render_swings({
        "base_kg": results[0].base_kg if results else None,
        "factors": [result.to_dict() for result in results],
    })
