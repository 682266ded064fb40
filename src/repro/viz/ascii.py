"""Terminal visualization: ASCII bar charts for carbon reports.

The paper's figures are stacked bar charts (embodied breakdown +
operational, per design). This module renders the same shapes in plain
text so examples, the CLI and CI logs can show them without a plotting
dependency:

* :func:`stacked_bars` — Fig. 5-style groups: one bar per design, stacked
  die/bonding/packaging/interposer/operational segments;
* :func:`grouped_comparison` — Fig. 4-style: one bar per model estimate.
"""

from __future__ import annotations

from ..core.report import LifecycleReport
from ..errors import ParameterError

#: Segment glyphs, in stacking order (embodied components then operational).
SEGMENT_GLYPHS = (
    ("die", "#"),
    ("bonding", "B"),
    ("packaging", "P"),
    ("interposer", "I"),
    ("operational", "."),
)


def _segments(report: LifecycleReport) -> "list[tuple[str, float]]":
    breakdown = report.embodied.breakdown()
    return [
        ("die", breakdown["die"]),
        ("bonding", breakdown["bonding"]),
        ("packaging", breakdown["packaging"]),
        ("interposer", breakdown["interposer"]),
        ("operational", report.operational_kg),
    ]


def stacked_bars(
    reports: "list[LifecycleReport]",
    width: int = 48,
    labels: "list[str] | None" = None,
) -> str:
    """One stacked bar per report, scaled to the largest total."""
    if not reports:
        raise ParameterError("no reports to draw")
    if width < 10:
        raise ParameterError("width must be >= 10")
    if labels is None:
        labels = [r.design_name for r in reports]
    if len(labels) != len(reports):
        raise ParameterError("labels and reports must have equal length")

    scale = max(r.total_kg for r in reports)
    if scale <= 0:
        raise ParameterError("all totals are zero")
    glyph_of = dict(SEGMENT_GLYPHS)

    lines = []
    label_width = max(len(label) for label in labels)
    for label, report in zip(labels, reports):
        bar = ""
        for name, value in _segments(report):
            bar += glyph_of[name] * int(round(width * value / scale))
        marker = "" if report.valid else "  x INVALID"
        lines.append(
            f"{label:<{label_width}} |{bar:<{width}}| "
            f"{report.total_kg:8.2f} kg{marker}"
        )
    legend = "  ".join(f"{glyph}={name}" for name, glyph in SEGMENT_GLYPHS)
    lines.append(f"{'':<{label_width}}  ({legend})")
    return "\n".join(lines)


def grouped_comparison(
    entries: "list[tuple[str, float]]", width: int = 48, unit: str = "kg CO2e"
) -> str:
    """Simple horizontal bars for (label, value) pairs."""
    if not entries:
        raise ParameterError("no entries to draw")
    scale = max(value for _, value in entries)
    if scale <= 0:
        raise ParameterError("all values are zero")
    label_width = max(len(label) for label, _ in entries)
    lines = []
    for label, value in entries:
        bar = "#" * max(1, int(round(width * value / scale)))
        lines.append(f"{label:<{label_width}} |{bar:<{width}}| "
                     f"{value:9.2f} {unit}")
    return "\n".join(lines)
