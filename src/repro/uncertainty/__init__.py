"""Declarative uncertainty layer: factor sets behind one perturbation model.

Two halves:

* :mod:`repro.uncertainty.factors` — numpy-free declarative model:
  :class:`FactorTarget` / :class:`FactorSpec` / :class:`FactorSet` plus
  the built-in sets (3D-Carbon's Table 2 and the literature-grounded
  per-backend sets every :class:`repro.pipeline.CarbonBackend` serves
  through its ``factor_set()`` hook);
* :mod:`repro.uncertainty.plan` — the compiled, vectorized
  :class:`PerturbationPlan` every Monte-Carlo consumer (engine,
  analysis, service) draws and applies through.

The plan names resolve lazily so evaluate-only deployments never import
numpy.
"""

from .factors import (
    DISTRIBUTIONS,
    FactorSet,
    FactorSpec,
    FactorTarget,
    act_factor_set,
    first_order_factor_set,
    lca_factor_set,
    table2_factor_set,
)

#: Names served from :mod:`repro.uncertainty.plan` (imports numpy).
_PLAN_EXPORTS = ("PerturbationPlan", "draw_multipliers")


def __getattr__(name: str):
    if name in _PLAN_EXPORTS:
        from . import plan

        return getattr(plan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DISTRIBUTIONS",
    "FactorSet",
    "FactorSpec",
    "FactorTarget",
    "PerturbationPlan",
    "act_factor_set",
    "draw_multipliers",
    "first_order_factor_set",
    "lca_factor_set",
    "table2_factor_set",
]
