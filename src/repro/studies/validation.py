"""Validation studies of Sec. 4: EPYC 7452 (Fig. 4a) and Lakefield (Fig. 4b).

:func:`compare_backends` generalizes the section's method — run every
registered carbon backend over one design in a single batched engine
call — to any :class:`~repro.core.design.ChipDesign`; the two named
studies reproduce the paper's published comparisons:

* **AMD EPYC 7452** — an MCM 2.5D server CPU: four 74 mm² 7 nm CCDs plus a
  416 mm² 14 nm I/O die on a 58.5 × 75.4 mm organic package [8, 23].
* **Intel Lakefield** — a micro-bump (Foveros) 3D mobile processor: an
  82 mm² logic die stacked face-to-face on a 92 mm² base die in a
  12 × 12 mm package-on-package [15]. The paper models the pair as
  7 nm-on-14 nm; both D2W and W2W assembly variants are evaluated and the
  quoted effective yields (89.3 % / 88.4 % / 79.7 %) are reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.act_plus import ActPlusEstimate, act_plus_estimate
from ..baselines.lca import LcaEstimate, lca_estimate
from ..config.integration import AssemblyFlow, StackingStyle
from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign, Die, DieKind, PackageSpec
from ..core.embodied import EmbodiedReport, embodied_carbon
from ..core.operational import Workload
from ..core.report import render_table
from ..core.resolve import resolve_design
from ..pipeline.backends import BackendReport
from ..pipeline.registry import backend_names, get_backend
from ..seeds import DEFAULT_SEED
from .sweep import _evaluator_for

#: EPYC 7452 physical inputs (Sec. 4.1 and product documentation).
EPYC_CCD_AREA_MM2 = 74.0
EPYC_CCD_COUNT = 4
EPYC_IO_DIE_AREA_MM2 = 416.0
EPYC_PACKAGE_AREA_MM2 = 58.5 * 75.4

#: Lakefield physical inputs (Sec. 4.2 / ISSCC'20).
LAKEFIELD_LOGIC_AREA_MM2 = 82.0
LAKEFIELD_BASE_AREA_MM2 = 92.0
LAKEFIELD_PACKAGE_AREA_MM2 = 12.0 * 12.0


def epyc_7452_design() -> ChipDesign:
    """The EPYC 7452 as an MCM 2.5D design description."""
    dies = [
        Die(
            name=f"ccd{i}",
            node="7nm",
            area_mm2=EPYC_CCD_AREA_MM2,
            workload_share=1.0 / EPYC_CCD_COUNT,
        )
        for i in range(EPYC_CCD_COUNT)
    ]
    dies.append(
        Die(
            name="io_die",
            node="14nm",
            area_mm2=EPYC_IO_DIE_AREA_MM2,
            kind=DieKind.IO,
            workload_share=0.0,
        )
    )
    return ChipDesign(
        name="EPYC_7452",
        dies=tuple(dies),
        integration="mcm",
        assembly=AssemblyFlow.CHIP_LAST,
        package=PackageSpec("server_mcm", area_mm2=EPYC_PACKAGE_AREA_MM2),
    )


def epyc_2d_equivalent_design() -> ChipDesign:
    """EPYC's silicon as one 2D monolithic die (the Sec. 4.1 adjustment).

    LCA reports are written for 2D monolithic ICs; to compare like with
    like the paper re-runs 3D-Carbon on a single die of the summed area at
    the node the LCA database actually covers (14 nm).
    """
    total = EPYC_CCD_COUNT * EPYC_CCD_AREA_MM2 + EPYC_IO_DIE_AREA_MM2
    return ChipDesign.planar_2d(
        "EPYC_7452_2D_equivalent",
        node="14nm",
        area_mm2=total,
        package_class="server_mcm",
        package_area_mm2=EPYC_PACKAGE_AREA_MM2,
    )


def lakefield_design(assembly: AssemblyFlow = AssemblyFlow.D2W) -> ChipDesign:
    """Intel Lakefield as a micro-bump (Foveros) F2F 3D stack."""
    base = Die(
        name="base_die",
        node="14nm",
        area_mm2=LAKEFIELD_BASE_AREA_MM2,
        kind=DieKind.MEMORY,
        workload_share=0.0,
    )
    logic = Die(
        name="logic_die",
        node="7nm",
        area_mm2=LAKEFIELD_LOGIC_AREA_MM2,
        workload_share=1.0,
    )
    return ChipDesign(
        name=f"Lakefield_{assembly.value}",
        dies=(base, logic),
        integration="micro_3d",
        stacking=StackingStyle.F2F,
        assembly=assembly,
        package=PackageSpec("pop_mobile", area_mm2=LAKEFIELD_PACKAGE_AREA_MM2),
    )


@dataclass(frozen=True)
class BackendComparison:
    """Every registered carbon model's verdict on one design.

    The generalized Sec. 4 cross-model table: one row per backend, all
    evaluated in a single batched engine call (the design resolves once
    and every model prices the same resolution).
    """

    design_name: str
    workload_name: "str | None"
    reports: tuple[BackendReport, ...]
    #: Per-backend Monte-Carlo bands (parallel to ``reports``), drawn
    #: from each backend's *own* factor set; ``None`` when the
    #: comparison ran without draws.
    bands: "tuple | None" = None

    def report(self, backend: str) -> BackendReport:
        for entry in self.reports:
            if entry.backend == backend:
                return entry
        raise KeyError(backend)

    def band(self, backend: str):
        """The backend's uncertainty band (KeyError without draws)."""
        if self.bands is None:
            raise KeyError(backend)
        for entry, band in zip(self.reports, self.bands):
            if entry.backend == backend:
                return band
        raise KeyError(backend)

    def rows(self) -> "list[tuple]":
        """(label, die, bonding, packaging, interposer, emb, oper, total)."""
        rows = []
        for entry in self.reports:
            breakdown = entry.breakdown_dict()
            rows.append((
                get_backend(entry.backend).label,
                breakdown.get("die", 0.0),
                breakdown.get("bonding", 0.0),
                breakdown.get("packaging", 0.0),
                breakdown.get("interposer", 0.0),
                entry.embodied_kg,
                entry.operational_kg,
                entry.total_kg,
            ))
        return rows

    def format_table(self) -> str:
        """Fixed-width cross-model table (the ``table`` renderer)."""
        bands = self.bands or (None,) * len(self.reports)
        return render_table({
            "design": self.design_name,
            "workload": (
                {"name": self.workload_name} if self.workload_name else None
            ),
            "backends": [
                {
                    "label": get_backend(entry.backend).label,
                    "report": entry.to_dict(),
                    **({"uncertainty": band.to_payload()}
                       if band is not None else {}),
                }
                for entry, band in zip(self.reports, bands)
            ],
        })


def compare_backends(
    design: ChipDesign,
    backends: "list[str] | None" = None,
    workload: "Workload | None" = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    evaluator=None,
    draws: int = 0,
    seed: int = DEFAULT_SEED,
) -> BackendComparison:
    """Evaluate ``design`` under every (or selected) carbon backend.

    Evaluated through one :class:`repro.engine.BatchEvaluator` (pass
    ``evaluator=`` to share one engine across studies), in one batched
    ``evaluate_many`` call: the shared resolve stage runs once
    and each backend's own stages are memoized per fingerprint, so
    adding a model to the comparison costs only that model's pricing
    math. Results are bit-identical to each backend's direct API
    (parity-tested).

    ``draws > 0`` additionally attaches a Monte-Carlo uncertainty band
    per backend, drawn from *that backend's own* factor set (Table 2 for
    3D-Carbon, the ACT intensity table, the GaBi CPA spread, ...) — the
    honest cross-model comparison the paper's Sec. 4 calls for. All
    bands share the one engine, so the design's resolution and every
    stage a draw cannot touch are computed once across the whole study.
    """
    from ..engine import EvalPoint

    params = params if params is not None else DEFAULT_PARAMETERS
    evaluator = _evaluator_for(evaluator, params, fab_location)
    if backends is None:
        backends = list(backend_names())
    else:
        for name in backends:
            get_backend(name)  # typed BackendError before any evaluation
    points = [
        EvalPoint(
            design=design,
            params=params,
            fab_location=fab_location,
            workload=workload,
            label=name,
            backend=name,
        )
        for name in backends
    ]
    reports = evaluator.evaluate_many(points)
    bands = None
    if draws:
        from ..analysis.uncertainty import monte_carlo

        bands = tuple(
            monte_carlo(
                design,
                workload=workload,
                params=params,
                fab_location=fab_location,
                samples=draws,
                seed=seed,
                evaluator=evaluator,
                backend=name,
            )
            for name in backends
        )
    return BackendComparison(
        design_name=design.name,
        workload_name=workload.name if workload is not None else None,
        reports=tuple(reports),
        bands=bands,
    )


@dataclass(frozen=True)
class EpycValidation:
    """Fig. 4(a): the three modeled estimates for EPYC 7452."""

    lca: LcaEstimate
    act_plus: ActPlusEstimate
    carbon_3d: EmbodiedReport
    carbon_3d_as_2d: EmbodiedReport

    @property
    def lca_vs_2d_discrepancy(self) -> float:
        """Relative gap between LCA and 2D-adjusted 3D-Carbon (paper ≈ 4.4 %)."""
        return abs(self.lca.total_kg - self.carbon_3d_as_2d.total_kg) / (
            self.carbon_3d_as_2d.total_kg
        )

    def rows(self) -> "list[tuple[str, float, float, float]]":
        """(model, die kg, packaging kg, total kg) rows for the bench."""
        return [
            ("LCA", self.lca.die_kg, self.lca.packaging_kg, self.lca.total_kg),
            (
                "ACT+",
                self.act_plus.die_kg,
                self.act_plus.packaging_kg,
                self.act_plus.total_kg,
            ),
            (
                "3D-Carbon",
                self.carbon_3d.die_kg + self.carbon_3d.bonding_kg
                + self.carbon_3d.interposer_kg,
                self.carbon_3d.packaging_kg,
                self.carbon_3d.total_kg,
            ),
        ]


def epyc_validation(
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
) -> EpycValidation:
    """Run the complete Fig. 4(a) comparison."""
    params = params if params is not None else DEFAULT_PARAMETERS
    ci = params.grid(fab_location).kg_co2_per_kwh
    design = epyc_7452_design()
    resolved = resolve_design(design, params)
    dies = [(rd.node.name, rd.area_mm2) for rd in resolved.dies]
    return EpycValidation(
        lca=lca_estimate(dies, params, monolithic=True),
        act_plus=act_plus_estimate(design, ci, params),
        carbon_3d=embodied_carbon(resolved, params, ci),
        carbon_3d_as_2d=embodied_carbon(epyc_2d_equivalent_design(), params, ci),
    )


@dataclass(frozen=True)
class LakefieldValidation:
    """Fig. 4(b): estimates and the Sec. 4.2 yield anchors for Lakefield."""

    lca: LcaEstimate
    act_plus: ActPlusEstimate
    carbon_3d_d2w: EmbodiedReport
    carbon_3d_w2w: EmbodiedReport
    d2w_logic_yield: float
    d2w_memory_yield: float
    w2w_yield: float

    def rows(self) -> "list[tuple[str, float]]":
        return [
            ("LCA", self.lca.total_kg),
            ("ACT+", self.act_plus.total_kg),
            ("3D-Carbon (D2W)", self.carbon_3d_d2w.total_kg),
            ("3D-Carbon (W2W)", self.carbon_3d_w2w.total_kg),
        ]


def lakefield_validation(
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
) -> LakefieldValidation:
    """Run the complete Fig. 4(b) comparison (both assembly flows)."""
    params = params if params is not None else DEFAULT_PARAMETERS
    ci = params.grid(fab_location).kg_co2_per_kwh
    d2w = lakefield_design(AssemblyFlow.D2W)
    w2w = lakefield_design(AssemblyFlow.W2W)
    resolved_d2w = resolve_design(d2w, params)
    resolved_w2w = resolve_design(w2w, params)
    dies = [(rd.node.name, rd.area_mm2) for rd in resolved_d2w.dies]
    # Die order: (base/memory, logic); Table 3 indexes bottom→top.
    memory_yield, logic_yield = resolved_d2w.stack_yields.per_die
    return LakefieldValidation(
        lca=lca_estimate(dies, params, monolithic=False, packaging_kg=0.3),
        act_plus=act_plus_estimate(d2w, ci, params),
        carbon_3d_d2w=embodied_carbon(resolved_d2w, params, ci),
        carbon_3d_w2w=embodied_carbon(resolved_w2w, params, ci),
        d2w_logic_yield=logic_yield,
        d2w_memory_yield=memory_yield,
        w2w_yield=resolved_w2w.stack_yields.per_die[0],
    )
