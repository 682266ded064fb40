"""Deadline budgets: cooperative timeout enforcement.

A :class:`Deadline` is a monotonic budget created where a request enters
the system (the ``X-Carbon3D-Deadline-Ms`` header, a session's
``deadline_ms``) and *checked* at natural work boundaries — between
batch points, before and after an engine computation, while waiting on a
coalesced future. Overruns raise the typed
:class:`~repro.errors.EvaluationTimeout`, which the service maps to a
504 payload instead of a hung connection.

Enforcement is cooperative by design: evaluation stages are pure CPU
Python that cannot be safely preempted mid-float, so the guarantee is
"a request never *returns* long after its budget, and never hangs", not
"computation halts at the microsecond". The fault-injection suite pins
the behaviour by delaying inside a checked region.
"""

from __future__ import annotations

import threading
import time

from ..errors import EvaluationTimeout

#: The longest budget a deadline carries, in seconds: the ceiling of the
#: ``timeout=`` that waits on a coalesced future take.
MAX_BUDGET_S = threading.TIMEOUT_MAX


def valid_budget_s(budget_s: float) -> bool:
    """Whether ``budget_s`` is a usable budget: finite, > 0 and at most
    :data:`MAX_BUDGET_S` seconds (``nan`` and ``inf`` are not)."""
    return 0 < budget_s <= MAX_BUDGET_S


def valid_budget_ms(budget_ms: float) -> bool:
    """:func:`valid_budget_s` for a budget in milliseconds."""
    return valid_budget_s(budget_ms / 1000.0)


#: The rule a millisecond budget breaks, for error messages.
BUDGET_MS_RULE = (
    f"a finite number of milliseconds in (0, {MAX_BUDGET_S * 1000:g}]"
)


class Deadline:
    """A monotonic time budget with typed overrun checks."""

    __slots__ = ("budget_s", "_clock", "_t0")

    def __init__(self, budget_s: float, clock=time.monotonic) -> None:
        if not valid_budget_s(budget_s):
            raise ValueError(
                f"deadline budget must be finite, > 0s and at most "
                f"{MAX_BUDGET_S:g}s, got {budget_s}"
            )
        self.budget_s = float(budget_s)
        self._clock = clock
        self._t0 = clock()

    @classmethod
    def after_ms(cls, budget_ms: float, clock=time.monotonic) -> "Deadline":
        """The header spelling: a budget in milliseconds."""
        return cls(budget_ms / 1000.0, clock=clock)

    def elapsed_s(self) -> float:
        return self._clock() - self._t0

    def remaining_s(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.budget_s - self.elapsed_s())

    def expired(self) -> bool:
        return self.elapsed_s() >= self.budget_s

    def check(self, what: str = "request") -> None:
        """Raise :class:`EvaluationTimeout` if the budget is spent."""
        elapsed = self.elapsed_s()
        if elapsed >= self.budget_s:
            raise EvaluationTimeout(
                f"{what} exceeded its {self.budget_s:.3f}s deadline "
                f"({elapsed:.3f}s elapsed)",
                budget_s=self.budget_s,
                elapsed_s=elapsed,
            )
