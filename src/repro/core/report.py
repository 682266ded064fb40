"""Lifecycle report: the combined output object of the tool (Fig. 3 right).

:class:`LifecycleReport` bundles the embodied breakdown (Eq. 3), the
operational result (Eq. 16), and the bandwidth check (Sec. 3.4), with
serialization (``to_dict``).

This module also holds the text renderers of every study result shape
the CLI prints, one per shape in
:data:`repro.service.schema.STUDY_KINDS` (:data:`RENDERERS`). Each reads
the shape's JSON payload, so a result renders the same whether it was
computed locally or by a server; the library formatters
(:meth:`LifecycleReport.render`,
:func:`~repro.analysis.sensitivity.format_tornado`,
:meth:`~repro.studies.validation.BackendComparison.format_table`) call
them too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bandwidth import BandwidthResult
from .embodied import EmbodiedReport
from .operational import OperationalReport, Workload


@dataclass(frozen=True)
class LifecycleReport:
    """Total life-cycle carbon of one design (Eq. 1)."""

    design_name: str
    integration: str
    embodied: EmbodiedReport
    bandwidth: BandwidthResult
    operational: OperationalReport | None = None

    @property
    def embodied_kg(self) -> float:
        return self.embodied.total_kg

    @property
    def operational_kg(self) -> float:
        return self.operational.total_kg if self.operational else 0.0

    @property
    def total_kg(self) -> float:
        """Eq. 1: C_total = C_operational + C_emb."""
        return self.embodied_kg + self.operational_kg

    @property
    def valid(self) -> bool:
        """False when the Sec. 3.4 bandwidth constraint is violated."""
        return self.bandwidth.valid

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key ordering)."""
        data: dict = {
            "design": self.design_name,
            "integration": self.integration,
            "valid": self.valid,
            "embodied_kg": self.embodied_kg,
            "embodied_breakdown_kg": self.embodied.breakdown(),
            "per_die": [
                {
                    "name": r.name,
                    "node": r.node,
                    "area_mm2": r.die_area_mm2,
                    "beol_layers": r.beol_layers,
                    "yield": r.effective_yield,
                    "carbon_kg": r.carbon_kg,
                }
                for r in self.embodied.die.records
            ],
            "bandwidth": {
                "constrained": self.bandwidth.constrained,
                "required_tb_s": self.bandwidth.required_tb_s,
                "achieved_tb_s": self.bandwidth.achieved_tb_s,
                "ratio": self.bandwidth.ratio,
                "degradation": self.bandwidth.degradation,
            },
            "total_kg": self.total_kg,
        }
        if self.operational is not None:
            data["operational_kg"] = self.operational.total_kg
            data["operational"] = {
                "workload": self.operational.workload_name,
                "compute_energy_kwh": self.operational.compute_energy_kwh,
                "io_energy_kwh": self.operational.io_energy_kwh,
                "lifetime_years": self.operational.lifetime_years,
                "use_ci_kg_per_kwh": self.operational.use_ci_kg_per_kwh,
            }
        return data

    def render(self) -> str:
        """Human-readable multi-line summary."""
        return render_report(self.to_dict())


def format_report_table(
    reports: "list[LifecycleReport]", title: str = ""
) -> str:
    """Fixed-width comparison table across designs (Fig. 5-style rows)."""
    header = (
        f"{'design':<34} {'integ.':<14} {'die':>8} {'bond':>7} {'pkg':>7} "
        f"{'subst':>7} {'emb':>8} {'oper':>8} {'total':>8} {'valid':>6}"
    )
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for report in reports:
        b = report.embodied.breakdown()
        lines.append(
            f"{report.design_name:<34.34} {report.integration:<14} "
            f"{b['die']:8.2f} {b['bonding']:7.2f} {b['packaging']:7.2f} "
            f"{b['interposer']:7.2f} {report.embodied_kg:8.2f} "
            f"{report.operational_kg:8.2f} {report.total_kg:8.2f} "
            f"{'yes' if report.valid else 'NO':>6}"
        )
    return "\n".join(lines)


# -- the study result renderers ----------------------------------------------


def render_report(payload: dict) -> str:
    """A ``report`` payload (lifecycle or backend report) as text."""
    lines = [
        f"design        : {payload['design']}",
        f"integration   : {payload['integration']}",
        f"valid         : {'yes' if payload['valid'] else 'NO (bandwidth)'}",
        f"embodied      : {payload['embodied_kg']:9.3f} kg CO2e",
    ]
    for component, kg in payload["embodied_breakdown_kg"].items():
        lines.append(f"  - {component:<11}: {kg:9.3f} kg CO2e")
    if payload.get("operational_kg") is not None:
        use = payload.get("operational")
        lines.append(
            f"operational   : {payload['operational_kg']:9.3f} kg CO2e"
            + (f" ({use['workload']}, {use['lifetime_years']:g} y)"
               if use else "")
        )
    bandwidth = payload.get("bandwidth")
    if bandwidth and bandwidth["constrained"]:
        lines.append(
            f"bandwidth     : {bandwidth['achieved_tb_s']:8.2f} / "
            f"{bandwidth['required_tb_s']:8.2f} TB/s "
            f"(deg {bandwidth['degradation'] * 100:.1f}%)"
        )
    lines.append(f"total         : {payload['total_kg']:9.3f} kg CO2e")
    return "\n".join(lines)


def _workload_name(value) -> "str | None":
    """The name of a wire workload value (``"av"``, null or a record)."""
    if isinstance(value, dict):
        return value["name"]
    return Workload.autonomous_vehicle().name if value == "av" else None


def render_table(payload: dict) -> str:
    """A ``table`` payload (the cross-model comparison) as text, in
    kg CO₂e ('—' = not modeled), with the uncertainty bands if drawn."""
    workload = _workload_name(payload["workload"])
    header = (
        f"{'model':<14} {'die':>9} {'bond':>8} {'pkg':>8} {'subst':>8} "
        f"{'embodied':>9} {'oper':>9} {'total':>9}"
    )
    lines = [
        f"cross-model comparison — {payload['design']}"
        + (f" under {workload}" if workload else ""),
        header,
        "-" * len(header),
    ]
    rows = payload["backends"]
    for row in rows:
        report = row["report"]
        parts = report["embodied_breakdown_kg"]
        oper = report.get("operational_kg")
        oper_text = f"{oper:9.2f}" if oper is not None else f"{'—':>9}"
        lines.append(
            f"{row['label']:<14.14} {parts.get('die', 0.0):9.2f} "
            f"{parts.get('bonding', 0.0):8.2f} "
            f"{parts.get('packaging', 0.0):8.2f} "
            f"{parts.get('interposer', 0.0):8.2f} "
            f"{report['embodied_kg']:9.2f} {oper_text} "
            f"{report['total_kg']:9.2f}"
        )
    if rows and "uncertainty" in rows[0]:
        lines += ["", "uncertainty (each backend draws its own factor set):"]
        for row in rows:
            band = row["uncertainty"]
            lines.append(
                f"{row['label']:<14.14} n={band['samples']:<5d} "
                f"p05 {band['p05_kg']:9.2f}  p50 {band['p50_kg']:9.2f}  "
                f"p95 {band['p95_kg']:9.2f}"
            )
    return "\n".join(lines)


def render_swings(payload: dict) -> str:
    """A ``swings`` payload (the tornado study) as a text tornado chart."""
    factors = payload["factors"]
    if not factors:
        return "(no factors)"
    widest = max(abs(factor["swing_kg"]) for factor in factors) or 1.0
    lines = [f"base total: {payload['base_kg']:.2f} kg CO2e",
             f"{'factor':<34} {'low kg':>9} {'high kg':>9} {'swing':>8}"]
    for factor in factors:
        bar = "#" * max(1, int(24 * abs(factor["swing_kg"]) / widest))
        lines.append(
            f"{factor['factor']:<34.34} {factor['low_kg']:9.2f} "
            f"{factor['high_kg']:9.2f} {factor['swing_kg']:8.2f} {bar}"
        )
    return "\n".join(lines)


def render_front(payload: dict) -> str:
    """A ``front`` payload (the Pareto search) as a text table."""
    objectives = ", ".join(
        f"{name} {goal}" for name, goal in payload["objectives"].items()
    )
    header = (f"{'label':<34} {'wafer':>6} {'location':<10} "
              f"{'total kg':>9} {'perf TOPS':>9} {'cost mm2':>9}")
    lines = [
        f"Pareto front — {payload['design']} "
        f"({payload['evaluated']:,} configurations, "
        f"{payload['errors']:,} invalid, {payload['chunks']} chunks)",
        f"objectives: {objectives}",
        header,
        "-" * len(header),
    ]
    for point in payload["front"]:
        location = point["fab_location"]
        if isinstance(location, float):
            location = f"{location:g}g"
        lines.append(
            f"{point['label']:<34.34} {point['wafer_diameter_mm']:>6.0f} "
            f"{location:<10.10} {point['total_kg']:>9.2f} "
            f"{point['performance_tops']:>9.1f} {point['cost_mm2']:>9.1f}"
        )
    lines.append(f"{payload['front_size']} non-dominated configurations")
    return "\n".join(lines)


def render_points(payload: "list[dict]") -> str:
    """A ``points`` payload (a batch or sweep) as a table ranked by total
    carbon, input order breaking ties, and its best valid entry: the
    first valid one with the least total."""
    best = min(
        (entry for entry in payload if entry["report"]["valid"]),
        key=lambda entry: entry["report"]["total_kg"], default=None,
    )
    header = (
        f"{'configuration':<40} {'emb kg':>9} {'oper kg':>9} "
        f"{'total kg':>9} {'valid':>6}"
    )
    lines = [header, "-" * len(header)]
    for entry in sorted(payload, key=lambda e: e["report"]["total_kg"]):
        report = entry["report"]
        lines.append(
            f"{entry['label']:<40.40} {report['embodied_kg']:9.2f} "
            f"{report.get('operational_kg', 0.0):9.2f} "
            f"{report['total_kg']:9.2f} "
            f"{'yes' if report['valid'] else 'NO':>6}"
            + (" <== best" if entry is best else "")
        )
    if best is not None:
        lines += ["", f"best valid configuration: {best['label']} "
                      f"({best['report']['total_kg']:.2f} kg CO2e)"]
    return "\n".join(lines)


#: Result shape (``StudyKind.result``) → its text renderer.
RENDERERS = {
    "report": render_report,
    "points": render_points,
    "table": render_table,
    "swings": render_swings,
    "front": render_front,
}
