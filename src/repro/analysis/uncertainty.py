"""Monte-Carlo uncertainty propagation for carbon estimates.

Carbon-model inputs are ranges, not points (the paper's Table 2 lists
ranges for nearly everything). This module samples the declared factors
of a :class:`~repro.uncertainty.factors.FactorSet`, evaluates the design
for each draw, and summarizes the carbon distribution (mean, standard
deviation, percentiles).

A deterministic seed makes runs reproducible; numpy powers the sampling.
All draws — scalar fallback included — come from one compiled
:class:`~repro.uncertainty.plan.PerturbationPlan`, and evaluation routes
through :class:`repro.engine.BatchEvaluator`: multipliers are drawn up
front as one ``(samples, n_factors)`` array (bit-identical to the legacy
scalar draw sequence for the default triangular sets) and each draw
reuses the memoized parts of the pipeline the perturbation cannot touch.
When no factors are passed, the study uses the *backend's own* factor
set (``backend.factor_set(design)``) — 3D-Carbon's Table 2 set by
default, the ACT intensity table under ``backend="act"``, and so on —
so per-model uncertainty bands perturb each model's own inputs. The
legacy per-draw path survives as :func:`_monte_carlo_scalar` — the
reference the equivalence tests and the perf benches compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..seeds import DEFAULT_SEED
from ..core.design import ChipDesign
from ..core.model import CarbonModel
from ..core.operational import Workload
from ..errors import ParameterError
from .sensitivity import _factors_for


@dataclass(frozen=True)
class UncertaintyResult:
    """Summary of the sampled carbon distribution.

    Summary statistics are computed once per instance (the samples are
    immutable): the raw array and its sorted copy are cached, and every
    percentile reads the sorted copy.
    """

    samples_kg: tuple[float, ...]
    base_kg: float

    @cached_property
    def _samples_array(self) -> np.ndarray:
        return np.asarray(self.samples_kg, dtype=float)

    @cached_property
    def _sorted_samples(self) -> np.ndarray:
        return np.sort(self._samples_array)

    @property
    def n(self) -> int:
        return len(self.samples_kg)

    @cached_property
    def mean_kg(self) -> float:
        return float(np.mean(self._samples_array))

    @cached_property
    def std_kg(self) -> float:
        return float(np.std(self._samples_array))

    def percentile(self, q: float) -> float:
        return float(np.percentile(self._sorted_samples, q))

    @cached_property
    def p05(self) -> float:
        return self.percentile(5.0)

    @cached_property
    def p50(self) -> float:
        return self.percentile(50.0)

    @cached_property
    def p95(self) -> float:
        return self.percentile(95.0)

    def summary(self) -> str:
        return (
            f"n={self.n}  base={self.base_kg:.2f}  mean={self.mean_kg:.2f} "
            f"± {self.std_kg:.2f} kg  [p5 {self.p05:.2f}, p50 {self.p50:.2f}, "
            f"p95 {self.p95:.2f}]"
        )

    def to_payload(self) -> dict:
        """The JSON summary-statistics shape of the wire formats.

        The single definition of the band key set the service
        ``/montecarlo`` and ``/compare`` payloads and the CLI's
        ``compare --json`` all share.
        """
        return {
            "samples": self.n,
            "base_kg": self.base_kg,
            "mean_kg": self.mean_kg,
            "std_kg": self.std_kg,
            "p05_kg": self.p05,
            "p50_kg": self.p50,
            "p95_kg": self.p95,
        }


def monte_carlo(
    design: ChipDesign,
    factors=None,
    workload: Workload | None = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    samples: int = 200,
    seed: int = DEFAULT_SEED,
    evaluator=None,
    backend=None,
) -> UncertaintyResult:
    """Propagate parameter uncertainty into the total-carbon distribution.

    Pass an existing :class:`repro.engine.BatchEvaluator` to share caches
    with other studies of the same design space (the draws run through
    :func:`repro.engine.montecarlo.monte_carlo_totals`); ``backend``
    prices the draws under any registered carbon backend instead of
    3D-Carbon — and, when ``factors`` is omitted, draws from that
    backend's own factor set.
    """
    from ..engine import BatchEvaluator
    from ..engine.montecarlo import monte_carlo_totals
    from ..uncertainty.plan import PerturbationPlan

    if samples < 2:
        raise ParameterError(f"need >= 2 samples, got {samples}")
    params = params if params is not None else DEFAULT_PARAMETERS
    if factors is None:
        factors = _factors_for(design, params, backend)
    if evaluator is None:
        evaluator = BatchEvaluator(params=params, fab_location=fab_location)
    base = evaluator.backend_total_kg(
        design, backend, workload=workload, params=params,
        fab_location=fab_location,
    )
    plan = PerturbationPlan(factors, params)
    multipliers = plan.draw(samples, seed)
    draws = monte_carlo_totals(
        design, plan, multipliers, workload, params, fab_location,
        evaluator, backend=backend,
    )
    return UncertaintyResult(samples_kg=tuple(draws), base_kg=base)


def _monte_carlo_scalar(
    design: ChipDesign,
    factors=None,
    workload: Workload | None = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    samples: int = 200,
    seed: int = DEFAULT_SEED,
) -> UncertaintyResult:
    """The legacy scalar Monte-Carlo path (reference implementation).

    One fresh :class:`CarbonModel` and one full pipeline run per draw.
    Multipliers come from the same vectorized
    :class:`~repro.uncertainty.plan.PerturbationPlan` the engine path
    draws from (the plan's triangular fast path is bit-identical to the
    historical factor-by-factor scalar sequence, so this is a draw-code
    unification, not a value change); each row is then applied through
    the sequential ``factor.apply`` chain and evaluated scalar-wise.
    Kept so equivalence tests and the perf benches can compare the
    engine against the pre-engine evaluation behaviour.
    """
    from ..uncertainty.plan import PerturbationPlan

    if samples < 2:
        raise ParameterError(f"need >= 2 samples, got {samples}")
    params = params if params is not None else DEFAULT_PARAMETERS
    if factors is None:
        factors = _factors_for(design, params, None)
    base = CarbonModel(design, params, fab_location).evaluate(workload).total_kg

    plan = PerturbationPlan(factors, params)
    if plan.has_model_factors:
        # CarbonModel evaluates 3D-Carbon only — a model-scoped factor
        # (a backend constant) would be drawn but never applied, so the
        # "reference" would silently price the wrong distribution.
        raise ParameterError(
            "the scalar Monte-Carlo reference cannot apply model-scoped "
            "factors; use monte_carlo(..., backend=...) for backend "
            "factor sets"
        )
    multipliers = plan.draw(samples, seed)
    draws: list[float] = []
    for row in multipliers.tolist():
        perturbed = plan.sequential(row)
        report = CarbonModel(design, perturbed, fab_location).evaluate(workload)
        draws.append(report.total_kg)
    return UncertaintyResult(samples_kg=tuple(draws), base_kg=base)


def comparison_robustness(
    baseline: ChipDesign,
    alternative: ChipDesign,
    workload: Workload | None = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    samples: int = 200,
    seed: int = DEFAULT_SEED,
    evaluator=None,
    factors=None,
    backend=None,
) -> float:
    """P(alternative emits less than baseline) under shared parameter draws.

    Both designs are evaluated under the *same* perturbed parameter set per
    draw (common random numbers), so the probability reflects genuine
    design risk rather than sampling noise. Routed through one shared
    :class:`repro.engine.BatchEvaluator`: the perturbed parameters are
    built once per draw and both designs reuse every pipeline stage the
    draw does not invalidate. ``factors``/``backend`` choose the factor
    set and pricing model (defaults: the backend's own set for the
    *alternative* design, priced by 3D-Carbon).
    """
    from ..engine import BatchEvaluator
    from ..uncertainty.plan import PerturbationPlan

    if samples < 2:
        raise ParameterError(f"need >= 2 samples, got {samples}")
    params = params if params is not None else DEFAULT_PARAMETERS
    if factors is None:
        factors = _factors_for(alternative, params, backend)
    if evaluator is None:
        evaluator = BatchEvaluator(params=params, fab_location=fab_location)
    plan = PerturbationPlan(factors, params)
    multipliers = plan.draw(samples, seed)
    wins = 0
    for row in multipliers.tolist():
        perturbed = plan.perturbed(row)
        draw_backend = plan.backend_for(row, backend)
        base_kg = evaluator.backend_total_kg(
            baseline, draw_backend, workload=workload, params=perturbed,
            fab_location=fab_location, transient=True,
        )
        alt_kg = evaluator.backend_total_kg(
            alternative, draw_backend, workload=workload, params=perturbed,
            fab_location=fab_location, transient=True,
        )
        if alt_kg < base_kg:
            wins += 1
    return wins / samples
