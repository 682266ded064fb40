"""Design-space exploration helpers (the "carbon-conscious design" use).

The paper positions 3D-Carbon as an early-design-stage tool; these sweeps
exercise it the way an architect would: vary one design axis, hold the
rest, and compare lifecycle carbon. Used by the ablation benches and the
``design_space_exploration`` example.

The integration and die-count sweeps take their designs from the one
design-space walk, :func:`repro.vec.grid.default_splits`, which the
``/sweep`` route walks too. Every sweep evaluates through a
:class:`repro.engine.BatchEvaluator` (each accepts an ``evaluator=`` to
share caches across sweeps): axes that cannot change the design
resolution — fab location, wafer diameter — resolve the design exactly
once for the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.grid import TABLE2_LOCATIONS
from ..config.integration import TABLE1_INTEGRATIONS
from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..core.report import LifecycleReport
from ..errors import ParameterError
from ..vec.grid import default_splits

#: The default x-axis of :func:`sweep_integrations` and of the service's
#: sweep requests: the full Table 1 span.
DEFAULT_INTEGRATIONS = TABLE1_INTEGRATIONS


def _evaluator_for(evaluator, params, fab_location="taiwan"):
    """A caller-supplied engine, or a fresh one for this sweep."""
    if evaluator is not None:
        return evaluator
    from ..engine import BatchEvaluator

    return BatchEvaluator(params=params, fab_location=fab_location)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration in a sweep."""

    label: str
    report: LifecycleReport


def sweep_integrations(
    reference: ChipDesign,
    integrations: "list[str] | None" = None,
    workload: Workload | None = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    evaluator=None,
) -> list[SweepPoint]:
    """Evaluate a 2D reference against every (or selected) integration."""
    params = params if params is not None else DEFAULT_PARAMETERS
    evaluator = _evaluator_for(evaluator, params, fab_location)
    if integrations is None:
        integrations = DEFAULT_INTEGRATIONS
    points = []
    for name, _, design in default_splits(
        reference, integrations, (2,), params
    ):
        report = evaluator.report(
            design, workload=workload, params=params, fab_location=fab_location
        )
        points.append(SweepPoint(label=name, report=report))
    return points


def sweep_die_counts(
    reference: ChipDesign,
    integration: str = "mcm",
    die_counts: "list[int] | None" = None,
    workload: Workload | None = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    evaluator=None,
) -> list[SweepPoint]:
    """How does chiplet count change lifecycle carbon for one technology?"""
    params = params if params is not None else DEFAULT_PARAMETERS
    evaluator = _evaluator_for(evaluator, params, fab_location)
    if die_counts is None:
        die_counts = [2, 3, 4]
    spec = params.integration_spec(integration)
    if spec.is_2d:
        raise ParameterError("die-count sweeps need a multi-die technology")
    points = []
    for _, n, design in default_splits(
        reference, (integration,), die_counts, params
    ):
        design = design.with_overrides(
            name=f"{reference.name}_{integration}_{n}die"
        )
        report = evaluator.report(
            design, workload=workload, params=params, fab_location=fab_location
        )
        points.append(SweepPoint(label=f"{n} dies", report=report))
    return points


def sweep_wafer_diameters(
    design: ChipDesign,
    diameters_mm: "list[float] | None" = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    evaluator=None,
) -> list[SweepPoint]:
    """Embodied carbon vs wafer size (Table 2's 200–450 mm range).

    The wafer diameter never enters design resolution, so the whole sweep
    resolves the design once.
    """
    base = params if params is not None else DEFAULT_PARAMETERS
    evaluator = _evaluator_for(evaluator, base, fab_location)
    if diameters_mm is None:
        diameters_mm = [200.0, 300.0, 450.0]
    points = []
    for diameter in diameters_mm:
        swept = base.with_wafer_diameter(diameter)
        report = evaluator.report(design, params=swept, fab_location=fab_location)
        points.append(SweepPoint(label=f"{diameter:.0f} mm", report=report))
    return points


def sweep_fab_locations(
    design: ChipDesign,
    locations: "list[str] | None" = None,
    params: ParameterSet | None = None,
    evaluator=None,
) -> list[SweepPoint]:
    """Embodied carbon vs manufacturing grid (Table 2's 30–700 g/kWh).

    The grid only scales the fab-electricity term, so the design resolves
    once and only Eq. 3 re-prices per location.
    """
    base = params if params is not None else DEFAULT_PARAMETERS
    evaluator = _evaluator_for(evaluator, base)
    if locations is None:
        locations = TABLE2_LOCATIONS
    points = []
    for location in locations:
        report = evaluator.report(design, params=base, fab_location=location)
        points.append(SweepPoint(label=location, report=report))
    return points


def format_sweep(points: "list[SweepPoint]", title: str = "") -> str:
    """Fixed-width rendering of a sweep."""
    header = (
        f"{'configuration':<22} {'embodied kg':>12} {'oper kg':>9} "
        f"{'total kg':>9} {'valid':>6}"
    )
    lines = []
    if title:
        lines.append(title)
    lines.extend([header, "-" * len(header)])
    for point in points:
        lines.append(
            f"{point.label:<22.22} {point.report.embodied_kg:12.2f} "
            f"{point.report.operational_kg:9.2f} "
            f"{point.report.total_kg:9.2f} "
            f"{'yes' if point.report.valid else 'NO':>6}"
        )
    return "\n".join(lines)
