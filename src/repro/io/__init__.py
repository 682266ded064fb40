"""Serialization: designs ↔ JSON, results → CSV/JSON rows."""

from .designs import (
    design_from_dict,
    design_to_dict,
    die_from_dict,
    die_to_dict,
    load_design,
    save_design,
)
from .results import (
    REPORT_COLUMNS,
    drive_study_rows,
    report_row,
    table5_rows,
    write_csv,
    write_json,
)

__all__ = [
    "REPORT_COLUMNS",
    "design_from_dict",
    "design_to_dict",
    "die_from_dict",
    "die_to_dict",
    "drive_study_rows",
    "load_design",
    "report_row",
    "save_design",
    "table5_rows",
    "write_csv",
    "write_json",
]
