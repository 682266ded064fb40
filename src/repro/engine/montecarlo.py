"""Monte-Carlo evaluation through the batch engine.

The draw/apply machinery lives in :mod:`repro.uncertainty.plan` — one
compiled :class:`~repro.uncertainty.plan.PerturbationPlan` per study
draws every multiplier vectorized (bit-identical to the legacy scalar
sequence for the default triangular sets) and applies rows through a
grouped-override fast path. This module keeps the engine-facing loop:
chunked evaluation of the draws through a memoized
:class:`~repro.engine.evaluator.BatchEvaluator`, under any registered
carbon backend — including per-draw derived backends when the factor set
carries model-scoped factors (see
:meth:`repro.pipeline.CarbonBackend.with_model_multipliers`).
"""

from __future__ import annotations

import numpy as np

from ..config.parameters import ParameterSet
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..uncertainty.plan import PerturbationPlan
from .evaluator import BatchEvaluator

#: Draws perturbed, then evaluated, per chunk of the MC loop.
DEFAULT_CHUNK_SIZE = 64


def monte_carlo_totals(
    design: ChipDesign,
    factors,
    multipliers: np.ndarray,
    workload: Workload | None,
    params: ParameterSet,
    fab_location: "str | float",
    evaluator: BatchEvaluator,
    backend=None,
) -> "list[float]":
    """Total-carbon draw values through the memoized pipeline, in chunks.

    ``factors`` may be a factor list, a
    :class:`~repro.uncertainty.factors.FactorSet`, or an already-compiled
    :class:`~repro.uncertainty.plan.PerturbationPlan` over ``params``.
    Each chunk of :data:`DEFAULT_CHUNK_SIZE` draws is perturbed as a
    batch first, then evaluated as a batch: keeping the phases separate
    means a chunk's perturbed parameter sets die together instead of
    interleaving with evaluation garbage.

    ``backend`` prices the draws under any registered
    :class:`repro.pipeline.CarbonBackend` instead of 3D-Carbon; factor
    sets with model-scoped factors derive a per-draw backend instance
    through ``with_model_multipliers``. The draw totals come back in row
    order.
    """
    plan = (
        factors if isinstance(factors, PerturbationPlan)
        else PerturbationPlan(factors, params)
    )
    # One bulk conversion to Python floats (bit-exact): per-row numpy
    # scalar indexing costs more than the whole perturbation otherwise.
    rows = np.asarray(multipliers).tolist()

    totals = []
    for start in range(0, len(rows), DEFAULT_CHUNK_SIZE):
        chunk = [
            (plan.perturbed(row), plan.backend_for(row, backend))
            for row in rows[start:start + DEFAULT_CHUNK_SIZE]
        ]
        for perturbed, draw_backend in chunk:
            totals.append(
                evaluator.backend_total_kg(
                    design,
                    draw_backend,
                    workload=workload,
                    params=perturbed,
                    fab_location=fab_location,
                    transient=True,
                )
            )
    return totals
