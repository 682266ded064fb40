"""Exception hierarchy for the 3D-Carbon reproduction.

All library-raised exceptions derive from :class:`CarbonModelError` so callers
can catch one base type. Input problems raise :class:`DesignError` or
:class:`ParameterError`; evaluating a design that violates the bandwidth
constraint of Sec. 3.4 does *not* raise — it returns a report flagged invalid
— but asking for metrics that require a valid design raises
:class:`InvalidDesignError`.
"""

from __future__ import annotations


class CarbonModelError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class DesignError(CarbonModelError):
    """The hardware design description is inconsistent or incomplete."""


class ParameterError(CarbonModelError):
    """A configuration parameter is out of its physical/documented range."""


class ReferenceDesignError(ParameterError):
    """A design-space walk (sweep, search, Pareto grid) was given a
    reference it cannot split; ``field`` tags the request field for
    service error payloads."""

    field = "design"


class UnknownTechnologyError(ParameterError):
    """A process node or integration technology name is not in the database."""


class BackendError(CarbonModelError):
    """A carbon-backend name is unknown (or the backend cannot serve).

    Raised by the :mod:`repro.pipeline` registry and surfaced unchanged by
    the CLI and the service (which maps it to a typed 400 payload rather
    than a traceback). ``backend`` carries the offending name and
    ``known`` the registered alternatives; ``field`` tags the request
    field for service error payloads.
    """

    field = "backend"

    def __init__(
        self, message: str, backend: "str | None" = None,
        known: "tuple[str, ...]" = (),
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.known = tuple(known)


class EvaluationTimeout(CarbonModelError):
    """An evaluation exceeded its deadline budget.

    Raised cooperatively — the engine and dispatcher check their budget
    at point/stage boundaries, so a request that overruns its
    ``X-Carbon3D-Deadline-Ms`` (or an evaluator's ``point_timeout_s``)
    surfaces as this typed error rather than a hung caller. ``budget_s``
    carries the allowance and ``elapsed_s`` how long the work actually
    took when the overrun was detected.
    """

    def __init__(
        self,
        message: str,
        budget_s: "float | None" = None,
        elapsed_s: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class InvalidDesignError(CarbonModelError):
    """The design fails a deployment constraint (e.g. I/O bandwidth)."""


class UnitError(CarbonModelError):
    """A quantity was supplied in an unconvertible or negative unit."""
