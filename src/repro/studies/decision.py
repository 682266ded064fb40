"""Table 5: sustainable decision-making for NVIDIA DRIVE ORIN (Sec. 5.2).

Evaluates the five *valid* 3D/2.5D alternatives to the 2D ORIN under the
homogeneous division approach — EMIB, silicon interposer, micro-bump 3D,
hybrid-bonding 3D and M3D — and derives the Table 5 columns: embodied and
overall carbon save ratios plus the choosing (T_c) and replacing (T_r)
metrics against the 10-year AV lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.metrics import DecisionMetrics, decision_metrics, format_decision_table
from ..core.operational import Workload
from ..core.report import LifecycleReport
from .anchors import ANCHORS
from .drive import drive_design
from .sweep import _evaluator_for

#: Table 5 columns, in paper order.
TABLE5_OPTIONS: tuple[str, ...] = ("EMIB", "Si_int", "Micro", "Hybrid", "M3D")

#: Paper's reference values for Table 5 (save ratios in %), read from
#: the anchor table.
PAPER_TABLE5 = {
    option: {
        column: ANCHORS[f"table5.{option}.{column}"].paper
        for column in ("embodied_save", "overall_save")
    }
    for option in TABLE5_OPTIONS
}


@dataclass(frozen=True)
class Table5Row:
    """One Table 5 column (an alternative IC) as a row."""

    option: str
    report: LifecycleReport
    metrics: DecisionMetrics


@dataclass(frozen=True)
class Table5Result:
    """Full Table 5 with the 2D baseline report."""

    baseline: LifecycleReport
    rows: tuple[Table5Row, ...]

    def row(self, option: str) -> Table5Row:
        for row in self.rows:
            if row.option.lower() == option.lower():
                return row
        raise KeyError(option)

    def format_table(self) -> str:
        return format_decision_table([row.metrics for row in self.rows])


def table5_study(
    device: str = "ORIN",
    workload: Workload | None = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    evaluator=None,
) -> Table5Result:
    """Reproduce Table 5 (defaults: ORIN, AV workload, 10-year lifetime).

    Evaluation runs through one :class:`repro.engine.BatchEvaluator`
    (pass ``evaluator=`` to share one engine — e.g. with the Fig. 5
    grid, which evaluates the same ORIN splits); results are
    bit-identical to the per-design ``CarbonModel`` path
    (equivalence-tested).
    """
    params = params if params is not None else DEFAULT_PARAMETERS
    workload = (
        workload if workload is not None else Workload.autonomous_vehicle()
    )
    evaluator = _evaluator_for(evaluator, params, fab_location)
    baseline = evaluator.report(
        drive_design(device, "2D"), workload=workload, params=params,
        fab_location=fab_location,
    )
    rows = []
    for option in TABLE5_OPTIONS:
        design = drive_design(device, option, approach="homogeneous")
        report = evaluator.report(
            design, workload=workload, params=params,
            fab_location=fab_location,
        )
        rows.append(
            Table5Row(
                option=option,
                report=report,
                metrics=decision_metrics(baseline, report),
            )
        )
    return Table5Result(baseline=baseline, rows=tuple(rows))
