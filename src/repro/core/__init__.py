"""Core 3D-Carbon model: Eq. 2–18 of the paper."""

from .area import AreaBreakdown, equivalent_gate_count, gate_area_mm2, resolve_area
from .bandwidth import (
    BandwidthResult,
    degradation_from_ratio,
    evaluate_bandwidth,
    io_lane_count,
)
from .beol import MIN_BEOL_LAYERS, BeolEstimate, estimate_beol_layers
from .bonding_carbon import BondingCarbonResult, BondRecord, bonding_carbon
from .design import ChipDesign, Die, DieKind, PackageSpec
from .die_carbon import DieCarbonRecord, DieCarbonResult, die_manufacturing_carbon
from .dpw import (
    dies_per_wafer,
    effective_area_per_die_mm2,
)
from .embodied import EmbodiedReport, embodied_carbon
from .interposer_carbon import InterposerCarbonResult, interposer_carbon
from .metrics import (
    ChoiceRegime,
    DecisionMetrics,
    decision_metrics,
    format_decision_table,
)
from .model import CarbonModel, evaluate_design
from .operational import (
    DieOperationalRecord,
    OperationalReport,
    SuiteOperationalReport,
    Workload,
    WorkloadSuite,
    operational_carbon,
)
from .packaging_carbon import (
    PackagingCarbonResult,
    package_base_area_mm2,
    packaging_carbon,
)
from .report import LifecycleReport, format_report_table
from .resolve import (
    M3DStack,
    ResolvedDesign,
    ResolvedDie,
    SubstrateGeometry,
    resolve_design,
)
from .wafer import (
    WaferCarbonBreakdown,
    m3d_wafer_carbon_per_cm2,
    wafer_carbon_per_cm2,
)
from .yield_model import (
    StackYields,
    die_yield,
    three_d_stack_yields,
    two_five_d_yields,
)

__all__ = [
    "AreaBreakdown",
    "BandwidthResult",
    "BeolEstimate",
    "BondRecord",
    "BondingCarbonResult",
    "CarbonModel",
    "ChipDesign",
    "ChoiceRegime",
    "DecisionMetrics",
    "Die",
    "DieCarbonRecord",
    "DieCarbonResult",
    "DieKind",
    "DieOperationalRecord",
    "EmbodiedReport",
    "InterposerCarbonResult",
    "LifecycleReport",
    "M3DStack",
    "MIN_BEOL_LAYERS",
    "OperationalReport",
    "PackageSpec",
    "PackagingCarbonResult",
    "ResolvedDesign",
    "ResolvedDie",
    "StackYields",
    "SubstrateGeometry",
    "WaferCarbonBreakdown",
    "SuiteOperationalReport",
    "Workload",
    "WorkloadSuite",
    "bonding_carbon",
    "decision_metrics",
    "degradation_from_ratio",
    "die_manufacturing_carbon",
    "die_yield",
    "dies_per_wafer",
    "effective_area_per_die_mm2",
    "embodied_carbon",
    "equivalent_gate_count",
    "estimate_beol_layers",
    "evaluate_bandwidth",
    "evaluate_design",
    "format_decision_table",
    "format_report_table",
    "gate_area_mm2",
    "interposer_carbon",
    "io_lane_count",
    "m3d_wafer_carbon_per_cm2",
    "operational_carbon",
    "package_base_area_mm2",
    "packaging_carbon",
    "resolve_area",
    "resolve_design",
    "three_d_stack_yields",
    "two_five_d_yields",
    "wafer_carbon_per_cm2",
]
