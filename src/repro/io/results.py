"""Result export: lifecycle reports and study grids → JSON / CSV rows.

Studies produce structured objects; downstream tooling (spreadsheets,
plotting scripts, CI dashboards) wants flat rows. This module flattens:

* one :class:`~repro.core.report.LifecycleReport` → a row dictionary;
* a Fig. 5 :class:`~repro.studies.drive.DriveStudyResult` → rows;
* a Table 5 :class:`~repro.studies.decision.Table5Result` → rows;

plus CSV/JSON writers with stable column ordering.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from ..core.report import LifecycleReport

#: Stable column order for report rows.
REPORT_COLUMNS = (
    "design", "integration", "valid",
    "die_kg", "bonding_kg", "packaging_kg", "interposer_kg",
    "embodied_kg", "operational_kg", "total_kg",
    "bandwidth_ratio", "degradation",
)


def report_row(report: LifecycleReport) -> dict:
    """Flatten a lifecycle report into one CSV-ready row."""
    breakdown = report.embodied.breakdown()
    return {
        "design": report.design_name,
        "integration": report.integration,
        "valid": report.valid,
        "die_kg": breakdown["die"],
        "bonding_kg": breakdown["bonding"],
        "packaging_kg": breakdown["packaging"],
        "interposer_kg": breakdown["interposer"],
        "embodied_kg": report.embodied_kg,
        "operational_kg": report.operational_kg,
        "total_kg": report.total_kg,
        "bandwidth_ratio": report.bandwidth.ratio,
        "degradation": report.bandwidth.degradation,
    }


def drive_study_rows(result) -> "list[dict]":
    """Rows for a Fig. 5 grid (adds device/option columns)."""
    rows = []
    for cell in result.cells:
        row = {"device": cell.device, "option": cell.option,
               "approach": result.approach}
        row.update(report_row(cell.report))
        rows.append(row)
    return rows


def table5_rows(result) -> "list[dict]":
    """Rows for the Table 5 decision study."""
    rows = []
    for entry in result.rows:
        m = entry.metrics
        rows.append({
            "option": entry.option,
            "embodied_save_pct": m.embodied_save_ratio * 100.0,
            "overall_save_pct": m.overall_save_ratio * 100.0,
            "tc_years": None if math.isinf(m.tc_years) else m.tc_years,
            "tr_years": None if math.isinf(m.tr_years) else m.tr_years,
            "regime": m.regime.value,
            "choose": m.choose_recommended,
            "replace": m.replace_recommended,
        })
    return rows


def write_csv(rows: "list[dict]", path: "str | Path") -> None:
    """Write rows to CSV with the union of keys as header."""
    if not rows:
        raise ValueError("no rows to write")
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def write_json(rows: "list[dict]", path: "str | Path") -> None:
    """Write rows to a JSON array file."""
    Path(path).write_text(json.dumps(rows, indent=2), encoding="utf-8")
