"""Fault tolerance: deterministic fault injection + recovery machinery.

The package has three small parts:

* :mod:`repro.resilience.faults` — the seedable :class:`FaultPlan` /
  :class:`FaultInjector` framework naming injection points at the
  stage, engine, store, service and transport layers;
* :mod:`repro.resilience.deadline` — cooperative :class:`Deadline`
  budgets raising the typed
  :class:`~repro.errors.EvaluationTimeout`;
* :mod:`repro.resilience.breaker` — the service client's
  :class:`CircuitBreaker`.

The recovery paths these exercise live where the work happens (the
store's quarantine-and-rebuild, the server's admission gate and
graceful drain) — this package only provides
the deterministic way to make them fire in CI.
"""

from ..errors import EvaluationTimeout
from .breaker import CircuitBreaker, CircuitOpenError
from .deadline import Deadline
from .faults import (
    FAULT_PLAN_ENV,
    FAULT_SITES,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    fire,
    global_injector,
    injected,
    install_plan,
    resolve_injector,
)

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "EvaluationTimeout",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "fire",
    "global_injector",
    "injected",
    "install_plan",
    "resolve_injector",
]
