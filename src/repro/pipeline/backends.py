"""Carbon backends: 3D-Carbon and every Sec. 4 baseline, one protocol.

The paper's headline result is a *comparison* — 3D-Carbon against
ACT-style 2D models, their multi-die ACT+ extension, GaBi-style LCA
reports and a first-order per-area estimate. This module expresses each
of those models as a :class:`CarbonBackend`: an explicit pipeline of
pure stages (see :mod:`repro.pipeline.stage`) that share the design
**resolution** stage (so gate-count designs are comparable across
models) and then diverge into their own carbon accounting.

Every backend produces a uniform :class:`BackendReport`; the underlying
native result (``LifecycleReport``, ``ActEstimate``, ...) rides along as
``detail``, bit-identical to what the baseline's direct module API
returns for the same inputs — the parity tests pin this.

Stage functions live at module level and take only picklable values, so
the engine can memoize them on fingerprints and the service store can
persist their composition across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..baselines.act import ActEstimate, act_estimate
from ..baselines.act_plus import ActPlusEstimate, act_plus_estimate
from ..baselines.first_order import FirstOrderEstimate, first_order_estimate
from ..baselines.lca import GABI_FINEST_NODE, LcaEstimate, lca_estimate
from ..config.parameters import ParameterSet
from ..core.bandwidth import evaluate_bandwidth
from ..errors import BackendError
from ..uncertainty.factors import (
    FactorSet,
    act_factor_set,
    first_order_factor_set,
    lca_factor_set,
    table2_factor_set,
)
from ..core.embodied import embodied_carbon
from ..core.operational import operational_carbon
from ..core.report import LifecycleReport
from ..core.resolve import ResolvedDesign, resolve_design
from . import fingerprint as fp
from .stage import EvalContext, PipelineRun, Stage, StageError


@dataclass(frozen=True)
class BackendReport:
    """The backend-uniform result of one evaluation point.

    ``operational_kg`` is ``None`` when the backend does not model the
    use phase (all baselines) or no workload was given; ``detail`` holds
    the backend's native result object.
    """

    backend: str
    design_name: str
    integration: str
    embodied_kg: float
    breakdown: tuple[tuple[str, float], ...]
    operational_kg: "float | None" = None
    valid: bool = True
    detail: Any = field(default=None, compare=False)

    @property
    def total_kg(self) -> float:
        """Eq. 1 total (embodied only for use-phase-blind backends)."""
        operational = self.operational_kg if self.operational_kg else 0.0
        return self.embodied_kg + operational

    def breakdown_dict(self) -> dict[str, float]:
        return dict(self.breakdown)

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key ordering)."""
        data: dict = {
            "backend": self.backend,
            "design": self.design_name,
            "integration": self.integration,
            "valid": self.valid,
            "embodied_kg": self.embodied_kg,
            "embodied_breakdown_kg": self.breakdown_dict(),
            "total_kg": self.total_kg,
        }
        if self.operational_kg is not None:
            data["operational_kg"] = self.operational_kg
        return data


class CarbonBackend:
    """Protocol base: a named, introspectable pipeline of pure stages.

    Subclasses define ``name``, ``label``, ``stages`` and the three
    composition hooks (:meth:`stage_key`, :meth:`stage_args`,
    :meth:`assemble`); everything else — lazy execution, memo seams,
    uniform summaries, store fingerprints — is shared.
    """

    #: Registry id (``"repro3d"``, ``"act"``, ...).
    name: str = ""
    #: Display name for comparison tables (``"3D-Carbon"``, ``"ACT"``).
    label: str = ""
    #: Whether the backend models use-phase (operational) carbon.
    models_operational: bool = False
    #: The ordered stage pipeline.
    stages: "tuple[Stage, ...]" = ()

    # -- introspection --------------------------------------------------------

    def _stage_map(self) -> "dict[str, Stage]":
        """Name → stage lookup, built lazily once per instance.

        ``stage()`` sits in the engine's per-draw hot loop, so linear
        scans (or rebuilding the tuple) per call would be pure waste.
        """
        stage_map = self.__dict__.get("_stages_by_name")
        if stage_map is None:
            stage_map = {stage.name: stage for stage in self.stages}
            self.__dict__["_stages_by_name"] = stage_map
        return stage_map

    def stage(self, name: str) -> Stage:
        stage = self._stage_map().get(name)
        if stage is None:
            raise StageError(
                f"backend {self.name!r} has no stage {name!r} "
                f"(stages: {', '.join(s.name for s in self.stages)})"
            )
        return stage

    def has_stage(self, name: str) -> bool:
        return name in self._stage_map()

    def stage_names(self) -> "tuple[str, ...]":
        return tuple(stage.name for stage in self.stages)

    # -- composition hooks ----------------------------------------------------

    def stage_key(self, stage: Stage, ctx: EvalContext, keys: dict,
                  outputs: dict):
        """The value fingerprint ``stage`` is memoized under."""
        raise NotImplementedError

    def stage_args(self, stage: Stage, ctx: EvalContext,
                   outputs: dict) -> tuple:
        """The concrete (picklable) argument tuple for ``stage.fn``."""
        raise NotImplementedError

    def assemble(self, ctx: EvalContext, outputs: dict):
        """The backend's native result from the finished stage outputs."""
        raise NotImplementedError

    def summarize(self, ctx: EvalContext, outputs: dict) -> BackendReport:
        """The uniform report; default wraps :meth:`assemble`."""
        raise NotImplementedError

    # -- uncertainty hooks ----------------------------------------------------

    def factor_set(self, design, params: "ParameterSet | None" = None
                   ) -> FactorSet:
        """This backend's own Monte-Carlo factor set for ``design``.

        Honest cross-model uncertainty perturbs each model's *own*
        inputs (the way ACT v3-style models carry their own parameter
        envelopes), so every built-in backend declares the factors its
        pipeline actually reads. Custom backends inherit 3D-Carbon's
        Table 2 set — override to declare your own.
        """
        return table2_factor_set(
            node=design.dies[0].node,
            integration=design.integration,
            package_class=design.package.package_class,
            params=params,
        )

    def with_model_multipliers(self, multipliers: "dict[str, float]"
                               ) -> "CarbonBackend":
        """A derived backend with model constants scaled per draw.

        Factor sets may declare ``kind="model"`` targets — constants of
        the backend itself (a fixed yield, a database table scale) that
        no :class:`ParameterSet` field addresses. The perturbation plan
        hands their per-draw multipliers here; backends exposing such
        constants return a cheap derived instance whose stage keys pin
        the scaled values. The base refuses unknown constants so a typo
        in a factor set fails loudly instead of silently not perturbing.
        """
        if not multipliers:
            return self
        raise BackendError(
            f"backend {self.name!r} exposes no model-constant factors "
            f"(got {', '.join(sorted(multipliers))})",
            backend=self.name,
        )

    # -- evaluation -----------------------------------------------------------

    def run(self, ctx: EvalContext, memo=None) -> PipelineRun:
        return PipelineRun(self, ctx, memo=memo)

    def evaluate(
        self,
        design,
        params: "ParameterSet | None" = None,
        fab_location: "str | float" = "taiwan",
        workload=None,
    ) -> BackendReport:
        """One-shot, engine-less evaluation (the parity-test reference)."""
        ctx = EvalContext.build(design, params, fab_location, workload)
        return self.run(ctx).summary()

    def store_fingerprint(self, ctx: EvalContext) -> tuple:
        """The value tuple the service store keys this backend's results on.

        Must pin every value any stage of the backend can read — the
        same sharing rule the engine memos apply, made durable. The
        default is the resolve fingerprint plus the fab carbon intensity;
        backends whose later stages read more must extend it.
        """
        return (fp.resolve_key(ctx.design, ctx.params), ctx.ci_fab)


# -- the 3D-Carbon backend ----------------------------------------------------


def repro3d_operational(resolved: ResolvedDesign, params: ParameterSet,
                        workload, bandwidth, efficiency_plugin=None):
    """Eq. 16 stage: ``None`` when no workload is attached."""
    if workload is None:
        return None
    return operational_carbon(
        resolved, params, workload, bandwidth, efficiency_plugin
    )


class Repro3DBackend(CarbonBackend):
    """The paper's own model — the full Fig. 3 pipeline.

    The stage functions are exactly the ones :class:`repro.core.model.
    CarbonModel` and the batch engine have always called; the backend
    only names the seams between them.
    """

    name = "repro3d"
    label = "3D-Carbon"
    models_operational = True
    stages = (
        Stage("resolve", resolve_design),
        Stage("embodied", embodied_carbon, uses=("resolve",)),
        Stage("bandwidth", evaluate_bandwidth, uses=("resolve",)),
        Stage("operational", repro3d_operational,
              uses=("resolve", "bandwidth")),
    )

    def __init__(self, efficiency_plugin=None) -> None:
        self.efficiency_plugin = efficiency_plugin

    def stage_key(self, stage, ctx, keys, outputs):
        if stage.name == "resolve":
            return fp.resolve_key(ctx.design, ctx.params)
        rkey = keys["resolve"]
        if stage.name == "embodied":
            return fp.embodied_key(rkey, ctx.design, ctx.params, ctx.ci_fab)
        if stage.name == "bandwidth":
            return fp.bandwidth_key(rkey, ctx.params)
        if stage.name == "operational":
            if ctx.workload is None:
                return (rkey, None)
            spec = rkey.value[0].value[1]
            use_ci = ctx.params.grid(
                ctx.workload.use_location
            ).kg_co2_per_kwh
            return fp.operational_key(
                rkey, fp.operational_prefix(ctx.design, spec), spec,
                ctx.params, ctx.workload, use_ci, outputs["bandwidth"],
                self.efficiency_plugin,
            )
        raise StageError(f"unknown repro3d stage {stage.name!r}")

    def stage_args(self, stage, ctx, outputs):
        if stage.name == "resolve":
            return (ctx.design, ctx.params)
        resolved = outputs["resolve"]
        if stage.name == "embodied":
            return (resolved, ctx.params, ctx.ci_fab)
        if stage.name == "bandwidth":
            return (resolved, ctx.params)
        if stage.name == "operational":
            return (resolved, ctx.params, ctx.workload,
                    outputs["bandwidth"], self.efficiency_plugin)
        raise StageError(f"unknown repro3d stage {stage.name!r}")

    def assemble(self, ctx, outputs) -> LifecycleReport:
        return LifecycleReport(
            design_name=ctx.design.name,
            integration=outputs["resolve"].spec.name,
            embodied=outputs["embodied"],
            bandwidth=outputs["bandwidth"],
            operational=outputs["operational"],
        )

    def summarize(self, ctx, outputs) -> BackendReport:
        return self.wrap_report(self.assemble(ctx, outputs))

    @classmethod
    def wrap_report(cls, report: LifecycleReport) -> BackendReport:
        """The uniform view of a natively-computed ``LifecycleReport``."""
        return BackendReport(
            backend=cls.name,
            design_name=report.design_name,
            integration=report.integration,
            embodied_kg=report.embodied_kg,
            breakdown=tuple(report.embodied.breakdown().items()),
            operational_kg=(
                report.operational.total_kg
                if report.operational is not None else None
            ),
            valid=report.valid,
            detail=report,
        )

    def store_fingerprint(self, ctx: EvalContext) -> tuple:
        rkey = fp.resolve_key(ctx.design, ctx.params)
        workload_part = None
        if ctx.workload is not None:
            workload_part = (
                ctx.workload,
                ctx.params.grid(ctx.workload.use_location).kg_co2_per_kwh,
            )
        return (
            fp.embodied_key(rkey, ctx.design, ctx.params, ctx.ci_fab),
            ctx.params.bandwidth,
            workload_part,
        )


# -- baseline backends --------------------------------------------------------


def act_stage(resolved: ResolvedDesign, params: ParameterSet,
              ci_fab: float) -> ActEstimate:
    """ACT over the resolved die list (same areas the 3D model prices)."""
    dies = [(die.name, die.node.name, die.area_mm2) for die in resolved.dies]
    return act_estimate(dies, ci_fab, params)


def act_plus_stage(resolved: ResolvedDesign, params: ParameterSet,
                   ci_fab: float) -> ActPlusEstimate:
    """ACT+ over a shared resolution (no second resolve pass)."""
    return act_plus_estimate(
        resolved.design, ci_fab, params, resolved=resolved
    )


def lca_stage(resolved: ResolvedDesign, params: ParameterSet,
              monolithic: bool, cpa_scale: float = 1.0) -> LcaEstimate:
    """GaBi-style LCA over the resolved (node, area) die list."""
    dies = [(die.node.name, die.area_mm2) for die in resolved.dies]
    return lca_estimate(
        dies, params, monolithic=monolithic, cpa_scale=cpa_scale
    )


def first_order_stage(
    resolved: ResolvedDesign,
    kg_per_cm2: "float | None" = None,
    packaging_kg: "float | None" = None,
) -> FirstOrderEstimate:
    """Die-size-only estimate over the summed resolved silicon."""
    kwargs = {}
    if kg_per_cm2 is not None:
        kwargs["kg_per_cm2"] = kg_per_cm2
    if packaging_kg is not None:
        kwargs["packaging_kg"] = packaging_kg
    return first_order_estimate(resolved.total_die_area_mm2, **kwargs)


def _die_nodes(design) -> "tuple[str, ...]":
    """Distinct node names of a design's dies, in first-seen order."""
    nodes: "list[str]" = []
    for die in design.dies:
        name = getattr(die.node, "name", die.node)
        if name not in nodes:
            nodes.append(name)
    return tuple(nodes)


#: The shared resolution stage every baseline opens with — one object,
#: so its identity (and fingerprint sharing) is visible in introspection.
_RESOLVE_STAGE = Stage("resolve", resolve_design)


class _BaselineBackend(CarbonBackend):
    """Shared shape of the four baselines: resolve → estimate.

    The resolve stage is *the same stage function under the same
    fingerprint* as 3D-Carbon's, so an engine comparing five backends
    resolves each design once; the estimate stage is the baseline's own
    pure pricing function.
    """

    estimate_stage: Stage = None  # type: ignore[assignment]

    def __init__(self) -> None:
        # Instance tuple, built once: the engine iterates ``stages`` per
        # evaluation point, so a rebuilding property would allocate in
        # the hot loop.
        self.stages = (_RESOLVE_STAGE, self.estimate_stage)

    def stage_key(self, stage, ctx, keys, outputs):
        if stage.name == "resolve":
            return fp.resolve_key(ctx.design, ctx.params)
        return self.estimate_key(ctx, keys["resolve"])

    def stage_args(self, stage, ctx, outputs):
        if stage.name == "resolve":
            return (ctx.design, ctx.params)
        return self.estimate_args(ctx, outputs["resolve"])

    def estimate_key(self, ctx: EvalContext, rkey):
        raise NotImplementedError

    def estimate_args(self, ctx: EvalContext,
                      resolved: ResolvedDesign) -> tuple:
        raise NotImplementedError

    def assemble(self, ctx, outputs):
        return outputs[self.estimate_stage.name]

    def summarize(self, ctx, outputs) -> BackendReport:
        estimate = outputs[self.estimate_stage.name]
        return BackendReport(
            backend=self.name,
            design_name=ctx.design.name,
            integration=outputs["resolve"].spec.name,
            embodied_kg=estimate.total_kg,
            breakdown=tuple(estimate.breakdown().items()),
            operational_kg=None,
            valid=True,
            detail=estimate,
        )


class ActBackend(_BaselineBackend):
    """ACT (Gupta et al., ISCA 2022): fixed yield, fixed packaging."""

    name = "act"
    label = "ACT"
    estimate_stage = Stage("act", act_stage, uses=("resolve",))

    def estimate_key(self, ctx, rkey):
        return (rkey, ctx.ci_fab)

    def estimate_args(self, ctx, resolved):
        return (resolved, ctx.params, ctx.ci_fab)

    def factor_set(self, design, params=None) -> FactorSet:
        return act_factor_set(_die_nodes(design))


class ActPlusBackend(_BaselineBackend):
    """ACT+ (Elgamal et al., 2023): ACT with a 2.5D cost factor."""

    name = "act_plus"
    label = "ACT+"
    estimate_stage = Stage("act_plus", act_plus_stage, uses=("resolve",))

    def estimate_key(self, ctx, rkey):
        return (rkey, ctx.ci_fab)

    def estimate_args(self, ctx, resolved):
        return (resolved, ctx.params, ctx.ci_fab)

    def factor_set(self, design, params=None) -> FactorSet:
        # ACT+ is ACT's accounting plus a fixed cost factor — same
        # parametric uncertainty, so the same set (distinct fingerprint
        # is carried by the backend id in every content key).
        return act_factor_set(_die_nodes(design))


class LcaBackend(_BaselineBackend):
    """GaBi-style LCA reports: 14 nm floor, 2D-monolithic accounting.

    ``monolithic="auto"`` (the default registered instance) prices
    multi-die assemblies as one merged die — the Sec. 4.1 behaviour the
    paper attributes to LCA reports; single-die designs price per die
    (the two are equivalent there). Pass ``True``/``False`` to pin the
    accounting for a study.
    """

    name = "lca"
    label = "LCA"
    estimate_stage = Stage("lca", lca_stage, uses=("resolve",))

    def __init__(self, monolithic: "bool | str" = "auto",
                 cpa_scale: float = 1.0) -> None:
        super().__init__()
        self.monolithic = monolithic
        #: Multiplier on the whole GaBi CPA table — the model-scoped
        #: ``gabi_cpa_scale`` factor of :func:`repro.uncertainty.factors.
        #: lca_factor_set` derives per-draw instances through it.
        self.cpa_scale = cpa_scale

    def _monolithic_for(self, ctx: EvalContext) -> bool:
        if self.monolithic == "auto":
            return len(ctx.design.dies) > 1
        return bool(self.monolithic)

    def estimate_key(self, ctx, rkey):
        # No fab-CI term: the database prices wafers, not fab electricity.
        # The 14 nm yield-node record rides along because lca_estimate
        # always prices yield at the database's finest node, whatever
        # nodes the design uses — rkey alone would serve stale estimates
        # when a factor perturbs defect_density[14nm] on a non-14nm
        # design.
        return (
            rkey,
            self._monolithic_for(ctx),
            self.cpa_scale,
            ctx.params.node(GABI_FINEST_NODE),
        )

    def estimate_args(self, ctx, resolved):
        return (
            resolved, ctx.params, self._monolithic_for(ctx), self.cpa_scale
        )

    def store_fingerprint(self, ctx: EvalContext) -> tuple:
        return (
            fp.resolve_key(ctx.design, ctx.params),
            self._monolithic_for(ctx),
            self.cpa_scale,
            ctx.params.node(GABI_FINEST_NODE),
        )

    def factor_set(self, design, params=None) -> FactorSet:
        return lca_factor_set()

    def with_model_multipliers(self, multipliers) -> "LcaBackend":
        if not multipliers:
            return self
        unknown = set(multipliers) - {"cpa_scale"}
        if unknown:
            raise BackendError(
                f"backend {self.name!r} has no model constant(s) "
                f"{', '.join(sorted(unknown))}",
                backend=self.name,
            )
        return LcaBackend(
            monolithic=self.monolithic,
            cpa_scale=self.cpa_scale * multipliers["cpa_scale"],
        )


class FirstOrderBackend(_BaselineBackend):
    """First-order per-area model (Eeckhout, IEEE CAL 2022)."""

    name = "first_order"
    label = "First-order"
    estimate_stage = Stage(
        "first_order", first_order_stage, uses=("resolve",)
    )

    def __init__(self, kg_per_cm2: "float | None" = None,
                 packaging_kg: "float | None" = None) -> None:
        super().__init__()
        #: ``None`` keeps the module defaults; the model-scoped factors
        #: of :func:`repro.uncertainty.factors.first_order_factor_set`
        #: derive per-draw instances with scaled values.
        self.kg_per_cm2 = kg_per_cm2
        self.packaging_kg = packaging_kg

    def estimate_key(self, ctx, rkey):
        return (rkey, self.kg_per_cm2, self.packaging_kg)

    def estimate_args(self, ctx, resolved):
        return (resolved, self.kg_per_cm2, self.packaging_kg)

    def store_fingerprint(self, ctx: EvalContext) -> tuple:
        return (
            fp.resolve_key(ctx.design, ctx.params),
            self.kg_per_cm2,
            self.packaging_kg,
        )

    def factor_set(self, design, params=None) -> FactorSet:
        return first_order_factor_set()

    def with_model_multipliers(self, multipliers) -> "FirstOrderBackend":
        if not multipliers:
            return self
        unknown = set(multipliers) - {"kg_per_cm2", "packaging_kg"}
        if unknown:
            raise BackendError(
                f"backend {self.name!r} has no model constant(s) "
                f"{', '.join(sorted(unknown))}",
                backend=self.name,
            )
        from ..baselines.first_order import (
            FIRST_ORDER_KG_PER_CM2,
            FIRST_ORDER_PACKAGING_KG,
        )

        base_k = (
            self.kg_per_cm2 if self.kg_per_cm2 is not None
            else FIRST_ORDER_KG_PER_CM2
        )
        base_c = (
            self.packaging_kg if self.packaging_kg is not None
            else FIRST_ORDER_PACKAGING_KG
        )
        return FirstOrderBackend(
            kg_per_cm2=base_k * multipliers.get("kg_per_cm2", 1.0),
            packaging_kg=base_c * multipliers.get("packaging_kg", 1.0),
        )
