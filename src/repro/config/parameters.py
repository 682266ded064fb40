"""Aggregated parameter set consumed by the carbon model.

:class:`ParameterSet` bundles every database in :mod:`repro.config` plus the
deployment-level constants (wafer size, bandwidth-constraint thresholds,
workload traffic intensity). All model entry points take a ``params``
argument defaulting to :func:`ParameterSet.default`; ablation studies build
modified copies through the ``with_*`` helpers, so a study never mutates
shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..errors import ParameterError
from .bonding import DEFAULT_BONDING_TABLE
from .grid import DEFAULT_GRID_TABLE, GridProfile
from .integration import DEFAULT_INTEGRATION_TABLE, IntegrationSpec
from .m3d import DEFAULT_M3D_PARAMETERS, M3DParameters
from .packaging import DEFAULT_PACKAGING_TABLE
from .substrate import DEFAULT_SUBSTRATE_PARAMETERS, SubstrateParameters
from .table import RecordTable
from .technology import DEFAULT_TECHNOLOGY_TABLE, ProcessNode


@dataclass(frozen=True)
class BandwidthConstraintParameters:
    """Constants of the Sec. 3.4 bandwidth constraint.

    MCM-GPU (Arunkumar ISCA'17) observed >20 % throughput degradation when
    inter-die bandwidth halves relative to the on-chip baseline; the paper
    marks designs *invalid* when they fall below the throughput requirement,
    i.e. when the achieved/required bandwidth ratio drops under 0.5.
    """

    #: Degradation at the half-bandwidth point (MCM-GPU: 20 %).
    degradation_at_half_bw: float = 0.20
    #: Below this achieved/required ratio the design is invalid.
    invalid_bw_ratio: float = 0.5
    #: On-chip traffic intensity of the fixed-throughput DNN workload,
    #: bytes of on-chip traffic per operation. Calibrated so the
    #: paper's validity pattern reproduces (MCM/InFO invalid for ORIN, all
    #: four 2.5D invalid for THOR — Secs. 5.1/5.2).
    traffic_bytes_per_op: float = 0.13
    #: Fraction of the on-chip traffic that actually crosses a die boundary
    #: after partitioning (Rent-style cut share); scales the I/O switching
    #: energy of Eq. 17 without weakening the Sec. 3.4 capacity check,
    #: which compares against the full 2D on-chip bandwidth.
    io_traffic_fraction: float = 0.30
    #: Whether the constraint is enforced at all (ablation knob A4).
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.degradation_at_half_bw < 1.0:
            raise ParameterError("degradation_at_half_bw must lie in (0, 1)")
        if not 0.0 < self.invalid_bw_ratio <= 1.0:
            raise ParameterError("invalid_bw_ratio must lie in (0, 1]")
        if self.traffic_bytes_per_op <= 0:
            raise ParameterError("traffic_bytes_per_op must be positive")
        if not 0.0 < self.io_traffic_fraction <= 1.0:
            raise ParameterError("io_traffic_fraction must lie in (0, 1]")

    def with_overrides(self, **overrides: Any) -> "BandwidthConstraintParameters":
        return replace(self, **overrides)


@dataclass(frozen=True)
class ParameterSet:
    """Every database and constant the 3D-Carbon model reads."""

    technology: RecordTable = DEFAULT_TECHNOLOGY_TABLE
    integration: RecordTable = DEFAULT_INTEGRATION_TABLE
    bonding: RecordTable = DEFAULT_BONDING_TABLE
    packaging: RecordTable = DEFAULT_PACKAGING_TABLE
    substrate: SubstrateParameters = DEFAULT_SUBSTRATE_PARAMETERS
    m3d: M3DParameters = DEFAULT_M3D_PARAMETERS
    grids: RecordTable = DEFAULT_GRID_TABLE
    bandwidth: BandwidthConstraintParameters = BandwidthConstraintParameters()
    #: Default manufacturing wafer diameter (mm); Table 2 covers 200–450 mm.
    wafer_diameter_mm: float = 300.0
    #: Whether wafer carbon scales with the estimated BEOL layer count
    #: (the 3D-Carbon refinement over ACT+; ablation knob A1).
    beol_aware: bool = True

    def __post_init__(self) -> None:
        if not 100.0 <= self.wafer_diameter_mm <= 500.0:
            raise ParameterError(
                f"wafer diameter {self.wafer_diameter_mm} mm outside "
                f"[100, 500] (Table 2 covers 200–450 mm)"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def default(cls) -> "ParameterSet":
        """The calibrated default parameter set (DESIGN.md §5)."""
        return cls()

    # -- lookups -----------------------------------------------------------

    def node(self, name: "str | float | ProcessNode") -> ProcessNode:
        """Resolve a process-node spelling."""
        return self.technology.get(name)

    def integration_spec(self, name: "str | IntegrationSpec") -> IntegrationSpec:
        """Resolve an integration-technology spelling."""
        return self.integration.get(name)

    def grid(self, location: "str | float | GridProfile") -> GridProfile:
        """Resolve a grid location, or a raw g CO₂/kWh value to a
        ``custom_<value>`` profile."""
        if type(location) is str or not isinstance(location, (int, float)):
            return self.grids.get(location)
        return GridProfile(f"custom_{float(location):g}", float(location))

    # -- override helpers (ablation studies) --------------------------------

    def with_wafer_diameter(self, diameter_mm: float) -> "ParameterSet":
        return replace(self, wafer_diameter_mm=diameter_mm)

    def with_beol_aware(self, enabled: bool) -> "ParameterSet":
        return replace(self, beol_aware=enabled)

    def with_bandwidth(self, **overrides: Any) -> "ParameterSet":
        return replace(self, bandwidth=self.bandwidth.with_overrides(**overrides))

    def with_substrate(self, **overrides: Any) -> "ParameterSet":
        return replace(self, substrate=self.substrate.with_overrides(**overrides))

    def with_m3d(self, **overrides: Any) -> "ParameterSet":
        return replace(self, m3d=self.m3d.with_overrides(**overrides))

    def with_node_override(
        self, node: "str | ProcessNode", **overrides: float
    ) -> "ParameterSet":
        return replace(self, technology=_override(self.technology, node, overrides))

    def with_integration_override(
        self, name: "str | IntegrationSpec", **overrides: Any
    ) -> "ParameterSet":
        return replace(self, integration=_override(self.integration, name, overrides))

    def with_bonding_override(self, method, flow, **overrides: Any) -> "ParameterSet":
        return replace(self, bonding=_override(self.bonding, (method, flow), overrides))

    def with_packaging_override(self, name: str, **overrides: Any) -> "ParameterSet":
        return replace(self, packaging=_override(self.packaging, name, overrides))


def _override(table: RecordTable, key, overrides: dict) -> RecordTable:
    """Copy of ``table`` with the record under ``key`` overridden."""
    return table.with_record(table.get(key).with_overrides(**overrides))


#: Module-level default used throughout the package.
DEFAULT_PARAMETERS = ParameterSet.default()
