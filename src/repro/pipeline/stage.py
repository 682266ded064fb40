"""The explicit evaluation pipeline: stages, contexts, and runs.

Every carbon backend — 3D-Carbon itself and each Sec. 4 baseline — is a
sequence of :class:`Stage` records. A stage is a *pure, module-level
function over picklable inputs*: the function identity plus its input
fingerprint fully determine the output, which is what lets the batch
engine memoize per-(backend, stage) and the service store persist
results across processes with bit-identical results.

:class:`PipelineRun` executes one backend over one :class:`EvalContext`,
lazily and in dependency order, recording per-stage outputs *and* the
fingerprint keys they were computed under — the introspection surface
(``run.key("embodied")``, ``run.output("resolve")``) that replaces the
implicit resolve → embodied → bandwidth → operational flow the scalar
model used to hard-code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..errors import CarbonModelError
from ..obs import trace as obs_trace


@dataclass(frozen=True)
class Stage:
    """One pure step of a backend's evaluation pipeline.

    ``fn`` must be a module-level function (picklable, so a distributed
    runner could ship stages by reference); ``uses``
    names the stages whose outputs feed it, in order. The backend supplies
    the concrete argument tuple and the fingerprint key — the stage record
    itself only declares structure.
    """

    name: str
    fn: Callable[..., Any]
    uses: tuple[str, ...] = ()


@dataclass(frozen=True)
class EvalContext:
    """Everything one evaluation point exposes to a backend's stages.

    ``ci_fab`` is pre-resolved from ``fab_location`` so stages stay pure
    functions of values (a location *name* is a lookup, not a value).
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


class PipelineRun:
    """Lazy, memoizable execution of one backend over one context.

    ``memo`` (optional) is any mapping-like object with ``get(key)`` and
    ``__setitem__`` over ``(stage_name, stage_key)`` pairs — a plain dict
    for :class:`repro.core.model.CarbonModel`. :class:`repro.engine.
    BatchEvaluator` passes none: it seeds the resolve stage from its own
    memo (:meth:`seed`) and runs the later stages unmemoized. Memoization only
    changes *whether* a stage function runs, never what it computes.
    """

    __slots__ = ("backend", "ctx", "_memo", "_outputs", "_keys")

    def __init__(self, backend, ctx: EvalContext, memo=None) -> None:
        self.backend = backend
        self.ctx = ctx
        self._memo = memo
        self._outputs: dict[str, Any] = {}
        self._keys: dict[str, Any] = {}

    def seed(self, stage_name: str, key, output) -> None:
        """Pre-load one stage's (key, output) — e.g. a shared resolution."""
        self._keys[stage_name] = key
        self._outputs[stage_name] = output

    def key(self, stage_name: str):
        """The fingerprint ``stage_name`` was (or would be) computed under."""
        if stage_name not in self._keys:
            self.output(stage_name)
        return self._keys[stage_name]

    def output(self, stage_name: str):
        """Run ``stage_name`` (and its dependencies) and return its output."""
        if stage_name in self._outputs:
            return self._outputs[stage_name]
        stage = self.backend.stage(stage_name)
        for dependency in stage.uses:
            self.output(dependency)
        key = self.backend.stage_key(stage, self.ctx, self._keys, self._outputs)
        self._keys[stage.name] = key
        value = None
        if self._memo is not None:
            value = self._memo.get((stage.name, key))
        if value is None:
            with obs_trace.span(
                f"stage.{stage.name}", backend=self.backend.name
            ):
                value = stage.fn(
                    *self.backend.stage_args(stage, self.ctx, self._outputs)
                )
            if self._memo is not None and value is not None:
                self._memo[(stage.name, key)] = value
        self._outputs[stage.name] = value
        return value

    def outputs(self) -> dict:
        """Run every stage; the full {stage name: output} mapping."""
        for stage in self.backend.stages:
            self.output(stage.name)
        return dict(self._outputs)

    def result(self):
        """The backend's native result (e.g. a ``LifecycleReport``)."""
        return self.backend.assemble(self.ctx, self.outputs())

    def summary(self):
        """The backend-uniform :class:`~repro.pipeline.backends.BackendReport`."""
        return self.backend.summarize(self.ctx, self.outputs())


class StageError(CarbonModelError):
    """A backend pipeline is malformed (unknown stage, bad dependency)."""
