"""Operational carbon (Sec. 3.3, Eq. 16–17).

The paper adopts the fixed-workload accounting common to autonomous-vehicle
studies (Sudhakar IEEE Micro'23): a *fixed total amount of computation*
(the application's operations over the device lifetime) is priced at each
die's energy efficiency:

    C_operational = Σ_k CI_use · P_app_k · T_app_k            (Eq. 16)
    P_app = Σ_i (Th_app / Eff_die_i + P_IO_i)                 (Eq. 17)

For a fixed workload, ``P·T`` reduces to energy: compute energy is
``ops / Eff`` — which is why newer, more efficient generations emit *less*
operational carbon (Sec. 5.1) — plus the I/O interface energy of coarse
interfaces (2.5D and micro-bump 3D pay ``E_bit`` per cross-die bit,
Sec. 3.3), minus the interconnect-power saving κ of fine-pitch 3D
integration. Bandwidth-starved 2.5D designs stall, burning static power:
compute energy stretches by the Sec. 3.4 degradation factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

from ..config.parameters import ParameterSet
from ..config.power import surveyed_efficiency
from ..errors import DesignError
from .bandwidth import BandwidthResult
from .resolve import ResolvedDesign, ResolvedDie

#: J per kWh, used to convert ops/efficiency into kWh.
_J_PER_KWH = 3.6e6


@dataclass(frozen=True)
class Workload:
    """A fixed-computation workload over the device lifetime.

    ``total_tera_ops`` is the total number of tera-operations executed over
    ``lifetime_years`` (1 Tera-op = 1e12 operations). ``use_location``
    resolves through the grid table (a name or a raw g CO₂/kWh value).
    """

    name: str
    total_tera_ops: float
    use_location: "str | float" = "renewable_charging"
    lifetime_years: float = 10.0

    def __post_init__(self) -> None:
        if self.total_tera_ops <= 0:
            raise DesignError("workload must perform positive work")
        if self.lifetime_years <= 0:
            raise DesignError("workload lifetime must be positive")

    @classmethod
    def from_activity(
        cls,
        name: str,
        throughput_tops: float,
        hours_per_day: float,
        lifetime_years: float = 10.0,
        use_location: "str | float" = "renewable_charging",
    ) -> "Workload":
        """Build a fixed workload from an activity pattern.

        ``throughput_tops`` is the sustained processing rate of the
        reference pipeline while active; total work is rate × active time.
        """
        if throughput_tops <= 0 or hours_per_day <= 0:
            raise DesignError("activity parameters must be positive")
        seconds = hours_per_day * 3600.0 * 365.25 * lifetime_years
        return cls(
            name=name,
            total_tera_ops=throughput_tops * seconds,
            use_location=use_location,
            lifetime_years=lifetime_years,
        )

    @classmethod
    def autonomous_vehicle(cls) -> "Workload":
        """The Sec. 5 AV case-study workload.

        An ORIN-class perception pipeline (254 TOPS sustained) active
        0.75 h/day over the 10-year vehicle life (Sudhakar IEEE Micro'23),
        charged on a renewable-leaning grid (50 g CO₂/kWh).
        """
        return cls.from_activity(
            name="av_perception",
            throughput_tops=254.0,
            hours_per_day=0.75,
            lifetime_years=10.0,
            use_location="renewable_charging",
        )


@dataclass(frozen=True)
class WorkloadSuite:
    """Several applications sharing one device (the Σ_k of Eq. 16).

    The paper's operational model sums over applications with their own
    run times; a suite aggregates per-application :class:`Workload`
    records. The lifetime is shared (the device's), taken as the maximum
    across members.
    """

    name: str
    workloads: tuple[Workload, ...]

    def __post_init__(self) -> None:
        if not self.workloads:
            raise DesignError("a workload suite needs at least one workload")

    @property
    def lifetime_years(self) -> float:
        return max(w.lifetime_years for w in self.workloads)


@dataclass(frozen=True)
class DieOperationalRecord:
    """Compute energy attribution for one die."""

    name: str
    workload_share: float
    efficiency_tops_per_w: float
    energy_kwh: float


@dataclass(frozen=True)
class OperationalReport:
    """Eq. 16 result for one design under one workload."""

    design_name: str
    workload_name: str
    lifetime_years: float
    use_ci_kg_per_kwh: float
    compute_energy_kwh: float
    io_energy_kwh: float
    degradation: float
    per_die: tuple[DieOperationalRecord, ...]
    runtime_hours: float | None

    @cached_property
    def total_energy_kwh(self) -> float:
        return self.compute_energy_kwh + self.io_energy_kwh

    @cached_property
    def total_kg(self) -> float:
        return self.use_ci_kg_per_kwh * self.total_energy_kwh

    @property
    def annual_kg(self) -> float:
        return self.total_kg / self.lifetime_years

    @property
    def average_power_w(self) -> float | None:
        """Mean power while active (Eq. 17 view of the same energy)."""
        if self.runtime_hours is None or self.runtime_hours <= 0:
            return None
        return self.total_energy_kwh / self.runtime_hours * 1000.0


class PowerPlugin(Protocol):
    """Fig. 3's operational power-estimation plug-in.

    3D-Carbon does not model microarchitectural power itself; it takes
    per-die energy efficiencies from an external estimator (McPAT,
    GPU power tools) or from surveyed data. A plug-in maps a resolved
    die to its efficiency in TOPS/W.
    """

    name: str

    def efficiency_tops_per_w(self, die: ResolvedDie) -> float:
        """Sustained energy efficiency of a resolved ``die`` (TOPS/W)."""
        ...  # pragma: no cover - protocol


def _die_efficiency(
    rdie: ResolvedDie, efficiency_plugin: "PowerPlugin | None" = None
) -> float:
    if efficiency_plugin is not None:
        return efficiency_plugin.efficiency_tops_per_w(rdie)
    if rdie.die.efficiency_tops_per_w is not None:
        return rdie.die.efficiency_tops_per_w
    return surveyed_efficiency(rdie.node.name)


def operational_carbon(
    resolved: ResolvedDesign,
    params: ParameterSet,
    workload: Workload,
    bandwidth: BandwidthResult,
    efficiency_plugin: "PowerPlugin | None" = None,
) -> OperationalReport:
    """Eq. 16–17 for a resolved design and a fixed workload.

    ``efficiency_plugin`` optionally injects a :class:`PowerPlugin`
    (Fig. 3's "operational power estimation plug-ins"); without one,
    per-die overrides and the surveyed tables apply.
    """
    spec = resolved.spec
    grid = params.grid(workload.use_location)

    shares = [rdie.die.workload_share for rdie in resolved.dies]
    share_total = sum(shares)
    if share_total <= 0:
        raise DesignError(
            f"{resolved.design.name}: no die carries workload share"
        )

    stretch = bandwidth.runtime_stretch
    kappa = spec.interconnect_power_saving
    per_die: list[DieOperationalRecord] = []
    compute_kwh = 0.0
    for rdie, share in zip(resolved.dies, shares):
        if share == 0.0:
            per_die.append(
                DieOperationalRecord(rdie.name, 0.0, float("nan"), 0.0)
            )
            continue
        eff = _die_efficiency(rdie, efficiency_plugin)
        tera_ops = workload.total_tera_ops * share / share_total
        energy_kwh = (
            tera_ops / eff / _J_PER_KWH * (1.0 - kappa) * stretch
        )
        compute_kwh += energy_kwh
        per_die.append(
            DieOperationalRecord(rdie.name, share / share_total, eff, energy_kwh)
        )

    io_kwh = 0.0
    if spec.io_power_counted:
        bw = params.bandwidth
        traffic_bits = (
            workload.total_tera_ops
            * 1.0e12
            * bw.traffic_bytes_per_op
            * bw.io_traffic_fraction
            * 8.0
        )
        io_kwh = spec.energy_per_bit_fj * 1.0e-15 * traffic_bits / _J_PER_KWH

    runtime_hours = None
    capacity = resolved.design.throughput_tops
    if capacity is not None:
        effective = capacity * (1.0 - bandwidth.degradation)
        if effective > 0:
            runtime_hours = workload.total_tera_ops / effective / 3600.0

    return OperationalReport(
        design_name=resolved.design.name,
        workload_name=workload.name,
        lifetime_years=workload.lifetime_years,
        use_ci_kg_per_kwh=grid.kg_co2_per_kwh,
        compute_energy_kwh=compute_kwh,
        io_energy_kwh=io_kwh,
        degradation=bandwidth.degradation,
        per_die=tuple(per_die),
        runtime_hours=runtime_hours,
    )


@dataclass(frozen=True)
class SuiteOperationalReport:
    """Aggregated Eq. 16 over a :class:`WorkloadSuite` (the Σ_k)."""

    design_name: str
    suite_name: str
    lifetime_years: float
    per_workload: tuple[OperationalReport, ...]

    @property
    def total_kg(self) -> float:
        return sum(r.total_kg for r in self.per_workload)

    @property
    def total_energy_kwh(self) -> float:
        return sum(r.total_energy_kwh for r in self.per_workload)

    @property
    def annual_kg(self) -> float:
        return self.total_kg / self.lifetime_years
