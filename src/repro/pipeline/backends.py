"""Carbon backends: 3D-Carbon and every Sec. 4 baseline, one protocol.

The paper's headline result is a *comparison* — 3D-Carbon against
ACT-style 2D models, their multi-die ACT+ extension, GaBi-style LCA
reports and a first-order per-area estimate. This module expresses each
of those models as a :class:`CarbonBackend`: one :meth:`~CarbonBackend.
price` over the design's shared **resolution** (so gate-count designs
are comparable across models), which then diverges into the model's own
carbon accounting.

Every backend produces a uniform :class:`BackendReport`; the underlying
native result (``LifecycleReport``, ``ActEstimate``, ...) rides along as
``detail``, bit-identical to what the baseline's direct module API
returns for the same inputs — the parity tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..baselines.act import act_estimate
from ..baselines.act_plus import act_plus_estimate
from ..baselines.first_order import first_order_estimate
from ..baselines.lca import GABI_FINEST_NODE, lca_estimate
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
from .stage import EvalContext


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
    """Protocol base: a named carbon model priced over a shared resolution.

    A subclass defines ``name``, ``label``, ``stages`` and :meth:`price`.
    The caller resolves the design (Eqs. 7–10 and 15, Table 3) and hands
    the resolution to ``price``, so an engine comparing several backends
    resolves each design once. Factor sets, model multipliers and store
    fingerprints have shared defaults.
    """

    #: Registry id (``"repro3d"``, ``"act"``, ...).
    name: str = ""
    #: Display name for comparison tables (``"3D-Carbon"``, ``"ACT"``).
    label: str = ""
    #: Whether the backend models use-phase (operational) carbon.
    models_operational: bool = False
    #: The names of the steps the backend takes, resolution first (what
    #: ``carbon3d backends`` prints).
    stages: "tuple[str, ...]" = ()

    def price(self, ctx: EvalContext,
              resolved: ResolvedDesign) -> BackendReport:
        """The uniform report of ``ctx`` priced over its resolution."""
        raise NotImplementedError

    # -- uncertainty hooks ----------------------------------------------------

    def factor_set(self, design, params: "ParameterSet | None" = None
                   ) -> FactorSet:
        """This backend's own Monte-Carlo factor set for ``design``.

        Honest cross-model uncertainty perturbs each model's *own*
        inputs (the way ACT v3-style models carry their own parameter
        envelopes), so every built-in backend declares the factors its
        ``price`` actually reads. Custom backends inherit 3D-Carbon's
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
        constants return a cheap derived instance whose store
        fingerprint pins the scaled values. The base refuses unknown constants so a typo
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

    def evaluate(
        self,
        design,
        params: "ParameterSet | None" = None,
        fab_location: "str | float" = "taiwan",
        workload=None,
    ) -> BackendReport:
        """One-shot, engine-less evaluation (the parity-test reference)."""
        ctx = EvalContext.build(design, params, fab_location, workload)
        return self.price(ctx, resolve_design(design, ctx.params))

    def store_fingerprint(self, ctx: EvalContext) -> tuple:
        """The value tuple the service store keys this backend's results on.

        Must pin every value resolution and :meth:`price` can read — the
        same sharing rule the engine memos apply, made durable. The
        default is the resolve fingerprint plus the fab carbon intensity;
        backends whose ``price`` reads more must extend it.
        """
        return (fp.resolve_key(ctx.design, ctx.params), ctx.ci_fab)


# -- the 3D-Carbon backend ----------------------------------------------------


class Repro3DBackend(CarbonBackend):
    """The paper's own model — the full Fig. 3 pipeline.

    ``price`` calls exactly the stage functions :class:`repro.core.model.
    CarbonModel` and the batch engine call, in the same order.
    """

    name = "repro3d"
    label = "3D-Carbon"
    models_operational = True
    stages = ("resolve", "embodied", "bandwidth", "operational")

    def __init__(self, efficiency_plugin=None) -> None:
        self.efficiency_plugin = efficiency_plugin

    def price(self, ctx, resolved) -> BackendReport:
        embodied = embodied_carbon(resolved, ctx.params, ctx.ci_fab)
        bandwidth = evaluate_bandwidth(resolved, ctx.params)
        operational = None
        if ctx.workload is not None:
            operational = operational_carbon(
                resolved, ctx.params, ctx.workload, bandwidth,
                self.efficiency_plugin,
            )
        return self.wrap_report(LifecycleReport(
            design_name=ctx.design.name,
            integration=resolved.spec.name,
            embodied=embodied,
            bandwidth=bandwidth,
            operational=operational,
        ))

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


def _die_nodes(design) -> "tuple[str, ...]":
    """Distinct node names of a design's dies, in first-seen order."""
    nodes: "list[str]" = []
    for die in design.dies:
        name = getattr(die.node, "name", die.node)
        if name not in nodes:
            nodes.append(name)
    return tuple(nodes)


class _BaselineBackend(CarbonBackend):
    """Shared shape of the four baselines: an estimate over the shared
    resolution (the same one 3D-Carbon prices), reported uniformly."""

    def _report(self, ctx: EvalContext, resolved: ResolvedDesign,
                estimate) -> BackendReport:
        return BackendReport(
            backend=self.name,
            design_name=ctx.design.name,
            integration=resolved.spec.name,
            embodied_kg=estimate.total_kg,
            breakdown=tuple(estimate.breakdown().items()),
            operational_kg=None,
            valid=True,
            detail=estimate,
        )


class ActBackend(_BaselineBackend):
    """ACT (Gupta et al., ISCA 2022): fixed yield, fixed packaging.

    Priced over the resolved die list (the areas the 3D model prices).
    """

    name = "act"
    label = "ACT"
    stages = ("resolve", "act")

    def price(self, ctx, resolved) -> BackendReport:
        dies = [
            (die.name, die.node.name, die.area_mm2) for die in resolved.dies
        ]
        return self._report(
            ctx, resolved, act_estimate(dies, ctx.ci_fab, ctx.params)
        )

    def factor_set(self, design, params=None) -> FactorSet:
        return act_factor_set(_die_nodes(design))


class ActPlusBackend(_BaselineBackend):
    """ACT+ (Elgamal et al., 2023): ACT with a 2.5D cost factor."""

    name = "act_plus"
    label = "ACT+"
    stages = ("resolve", "act_plus")

    def price(self, ctx, resolved) -> BackendReport:
        return self._report(ctx, resolved, act_plus_estimate(
            resolved.design, ctx.ci_fab, ctx.params, resolved=resolved
        ))

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
    stages = ("resolve", "lca")

    def __init__(self, monolithic: "bool | str" = "auto",
                 cpa_scale: float = 1.0) -> None:
        self.monolithic = monolithic
        #: Multiplier on the whole GaBi CPA table — the model-scoped
        #: ``gabi_cpa_scale`` factor of :func:`repro.uncertainty.factors.
        #: lca_factor_set` derives per-draw instances through it.
        self.cpa_scale = cpa_scale

    def _monolithic_for(self, ctx: EvalContext) -> bool:
        if self.monolithic == "auto":
            return len(ctx.design.dies) > 1
        return bool(self.monolithic)

    def price(self, ctx, resolved) -> BackendReport:
        dies = [(die.node.name, die.area_mm2) for die in resolved.dies]
        return self._report(ctx, resolved, lca_estimate(
            dies, ctx.params, monolithic=self._monolithic_for(ctx),
            cpa_scale=self.cpa_scale,
        ))

    def store_fingerprint(self, ctx: EvalContext) -> tuple:
        # No fab-CI term: the database prices wafers, not fab electricity.
        # The 14 nm yield-node record rides along because lca_estimate
        # always prices yield at the database's finest node, whatever
        # nodes the design uses — the resolve key alone would serve stale
        # estimates when a factor perturbs defect_density[14nm] on a
        # non-14nm design.
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
    """First-order per-area model (Eeckhout, IEEE CAL 2022): a die-size
    estimate over the summed resolved silicon."""

    name = "first_order"
    label = "First-order"
    stages = ("resolve", "first_order")

    def __init__(self, kg_per_cm2: "float | None" = None,
                 packaging_kg: "float | None" = None) -> None:
        #: ``None`` keeps the module defaults; the model-scoped factors
        #: of :func:`repro.uncertainty.factors.first_order_factor_set`
        #: derive per-draw instances with scaled values.
        self.kg_per_cm2 = kg_per_cm2
        self.packaging_kg = packaging_kg

    def price(self, ctx, resolved) -> BackendReport:
        kwargs = {}
        if self.kg_per_cm2 is not None:
            kwargs["kg_per_cm2"] = self.kg_per_cm2
        if self.packaging_kg is not None:
            kwargs["packaging_kg"] = self.packaging_kg
        return self._report(ctx, resolved, first_order_estimate(
            resolved.total_die_area_mm2, **kwargs
        ))

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
