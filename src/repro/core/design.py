"""Hardware-design description objects (the user input of Fig. 3).

A :class:`ChipDesign` is the complete description 3D-Carbon consumes:

* one or more :class:`Die` records — each with a process node and either a
  2D gate count (``N_2D_g``, the Eq. 8 path) or an explicit area (the
  validation studies use published die sizes);
* the integration technology (one of the Table 1 options, by name);
* the stacking style (F2F/F2B) and assembly flow (D2W/W2W or
  chip-first/chip-last) where the technology offers a choice;
* the package class (and optionally a fixed package area, for validation
  against products with known packages).

Die ordering convention: ``dies[0]`` is the bottom die / base tier
(die 1 of Table 3), ``dies[-1]`` the top die (die N). For 2.5D designs
Eq. 14's adjacent length ranks the dies by size, so their order does not
enter it.

Factory helpers build the paper's hypothetical designs from a 2D reference
(`homogeneous` and `heterogeneous` splits of Sec. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from ..config.integration import (
    AssemblyFlow,
    IntegrationSpec,
    StackingStyle,
)
from ..config.parameters import ParameterSet
from ..errors import DesignError
from ..rent.partition import heterogeneous_partitions, homogeneous_partitions


class DieKind(str, Enum):
    """Functional role of a die; memory dies use SRAM-density area scaling."""

    LOGIC = "logic"
    MEMORY = "memory"
    IO = "io"


@dataclass(frozen=True)
class Die:
    """One die (or M3D tier) of the design.

    Exactly one of ``gate_count`` / ``area_mm2`` must be provided: gate
    counts follow the Eq. 7–9 area-estimation path; explicit areas are used
    verbatim (assumed to already include TSV/I/O overheads, as die-photo
    measurements do).
    """

    name: str
    node: str
    gate_count: float | None = None
    area_mm2: float | None = None
    kind: DieKind = DieKind.LOGIC
    #: Share of the fixed-throughput workload this die computes (Eq. 17).
    workload_share: float = 1.0
    #: Optional override of the estimated BEOL layer count (Table 2 input).
    beol_layers: int | None = None
    #: Optional override of the Eq. 15 die yield.
    yield_override: float | None = None
    #: Optional per-die energy efficiency (TOPS/W); falls back to the
    #: device survey of :mod:`repro.config.power` when absent.
    efficiency_tops_per_w: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DesignError("die needs a non-empty name")
        if (self.gate_count is None) == (self.area_mm2 is None):
            raise DesignError(
                f"die {self.name!r}: specify exactly one of gate_count or "
                f"area_mm2"
            )
        if self.gate_count is not None and self.gate_count <= 0:
            raise DesignError(f"die {self.name!r}: gate count must be positive")
        if self.area_mm2 is not None and self.area_mm2 <= 0:
            raise DesignError(f"die {self.name!r}: area must be positive")
        if not 0.0 <= self.workload_share <= 1.0:
            raise DesignError(
                f"die {self.name!r}: workload share must lie in [0, 1]"
            )
        if self.beol_layers is not None and self.beol_layers < 1:
            raise DesignError(f"die {self.name!r}: beol_layers must be >= 1")
        if self.yield_override is not None and not 0.0 < self.yield_override <= 1.0:
            raise DesignError(
                f"die {self.name!r}: yield override must lie in (0, 1]"
            )
        if (
            self.efficiency_tops_per_w is not None
            and self.efficiency_tops_per_w <= 0
        ):
            raise DesignError(
                f"die {self.name!r}: efficiency must be positive"
            )

    def with_overrides(self, **overrides) -> "Die":
        return replace(self, **overrides)


@dataclass(frozen=True)
class PackageSpec:
    """Package selection: a class name plus an optional fixed area."""

    package_class: str = "fcbga"
    area_mm2: float | None = None

    def __post_init__(self) -> None:
        if self.area_mm2 is not None and self.area_mm2 <= 0:
            raise DesignError("package area override must be positive")


@dataclass(frozen=True)
class ChipDesign:
    """A complete 2D/3D/2.5D hardware design (Fig. 3 user input)."""

    name: str
    dies: tuple[Die, ...]
    integration: str = "2d"
    stacking: StackingStyle = StackingStyle.NA
    assembly: AssemblyFlow = AssemblyFlow.NA
    package: PackageSpec = field(default_factory=PackageSpec)
    #: Advertised 2D-counterpart throughput (TOPS); drives the Sec. 3.4
    #: bandwidth requirement and the Eq. 17 fixed-throughput power.
    throughput_tops: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DesignError("design needs a non-empty name")
        if not self.dies:
            raise DesignError(f"design {self.name!r} has no dies")
        names = [die.name for die in self.dies]
        if len(set(names)) != len(names):
            raise DesignError(f"design {self.name!r}: duplicate die names")
        if self.throughput_tops is not None and self.throughput_tops <= 0:
            raise DesignError(
                f"design {self.name!r}: throughput must be positive"
            )

    # -- validation against a parameter set ---------------------------------

    def validate(self, params: ParameterSet) -> IntegrationSpec:
        """Cross-check the design against the integration database.

        Returns the resolved :class:`IntegrationSpec`. Raises
        :class:`DesignError` for structural violations (die counts, stacking
        or assembly styles the technology does not offer).
        """
        spec = params.integration_spec(self.integration)
        n = len(self.dies)
        if spec.is_2d and n != 1:
            raise DesignError(
                f"{self.name}: 2D designs have exactly one die, got {n}"
            )
        if not spec.is_2d and n < 2:
            raise DesignError(
                f"{self.name}: {spec.name} integrates >= 2 dies, got {n}"
            )
        if spec.max_dies is not None and n > spec.max_dies:
            raise DesignError(
                f"{self.name}: {spec.name} supports at most {spec.max_dies} "
                f"dies/tiers (Table 1), got {n}"
            )
        if spec.is_3d:
            if self.stacking not in spec.allowed_stacking:
                allowed = ", ".join(s.value for s in spec.allowed_stacking)
                raise DesignError(
                    f"{self.name}: {spec.name} supports stacking {allowed}, "
                    f"got {self.stacking.value}"
                )
            if (
                spec.allowed_assembly != (AssemblyFlow.NA,)
                and self.assembly not in spec.allowed_assembly
            ):
                allowed = ", ".join(a.value for a in spec.allowed_assembly)
                raise DesignError(
                    f"{self.name}: {spec.name} supports assembly {allowed}, "
                    f"got {self.assembly.value}"
                )
        if spec.is_2_5d and self.assembly not in spec.allowed_assembly:
            allowed = ", ".join(a.value for a in spec.allowed_assembly)
            raise DesignError(
                f"{self.name}: {spec.name} supports assembly {allowed}, "
                f"got {self.assembly.value}"
            )
        # Hybrid-bonding F2F stacks two dies (Table 1).
        if (
            spec.name == "hybrid_3d"
            and self.stacking is StackingStyle.F2F
            and n > 2
        ):
            raise DesignError(
                f"{self.name}: hybrid F2F stacking is limited to 2 dies "
                f"(Table 1), got {n}"
            )
        for die in self.dies:
            params.node(die.node)  # raises UnknownTechnologyError if absent
        return spec

    @property
    def die_count(self) -> int:
        return len(self.dies)

    def with_overrides(self, **overrides) -> "ChipDesign":
        return replace(self, **overrides)

    # -- factories -----------------------------------------------------------

    @classmethod
    def planar_2d(
        cls,
        name: str,
        node: str,
        gate_count: float | None = None,
        area_mm2: float | None = None,
        package_class: str = "fcbga",
        package_area_mm2: float | None = None,
        throughput_tops: float | None = None,
        efficiency_tops_per_w: float | None = None,
    ) -> "ChipDesign":
        """A 2D monolithic reference design."""
        die = Die(
            name=f"{name}_die",
            node=node,
            gate_count=gate_count,
            area_mm2=area_mm2,
            efficiency_tops_per_w=efficiency_tops_per_w,
        )
        return cls(
            name=name,
            dies=(die,),
            integration="2d",
            package=PackageSpec(package_class, package_area_mm2),
            throughput_tops=throughput_tops,
        )

    @classmethod
    def homogeneous_split(
        cls,
        reference: "ChipDesign",
        integration: str,
        n_dies: int = 2,
        stacking: StackingStyle = StackingStyle.F2F,
        assembly: AssemblyFlow = AssemblyFlow.D2W,
    ) -> "ChipDesign":
        """Sec. 5 homogeneous approach: split a 2D IC into similar dies.

        The 3D designs of the case study use F2F with D2W stacking; 2.5D
        designs take the flow from the integration spec's first allowed
        assembly when the given one does not apply.
        """
        die0 = _single_die(reference)
        if die0.gate_count is None:
            raise DesignError(
                "homogeneous_split needs a gate-count-specified 2D reference"
            )
        partitions = homogeneous_partitions(die0.gate_count, n_dies)
        dies = tuple(
            die0.with_overrides(
                name=f"{reference.name}_{integration}_d{i}",
                gate_count=part.gate_count,
                workload_share=part.workload_share,
            )
            for i, part in enumerate(partitions)
        )
        return _derived_design(
            reference, dies, integration, stacking, assembly,
            suffix=f"{integration}_homog",
        )

    @classmethod
    def heterogeneous_split(
        cls,
        reference: "ChipDesign",
        integration: str,
        memory_node: str = "28nm",
        memory_fraction: float = 0.15,
        stacking: StackingStyle = StackingStyle.F2F,
        assembly: AssemblyFlow = AssemblyFlow.D2W,
    ) -> "ChipDesign":
        """Sec. 5 heterogeneous approach: memory/I/O on an older node."""
        die0 = _single_die(reference)
        if die0.gate_count is None:
            raise DesignError(
                "heterogeneous_split needs a gate-count-specified 2D reference"
            )
        logic, memory = heterogeneous_partitions(die0.gate_count, memory_fraction)
        logic_die = die0.with_overrides(
            name=f"{reference.name}_{integration}_logic",
            gate_count=logic.gate_count,
            workload_share=logic.workload_share,
        )
        memory_die = die0.with_overrides(
            name=f"{reference.name}_{integration}_mem",
            node=memory_node,
            gate_count=memory.gate_count,
            workload_share=memory.workload_share,
            kind=DieKind.MEMORY,
        )
        # Memory/base die goes on the bottom (Lakefield-style), logic on top.
        return _derived_design(
            reference, (memory_die, logic_die), integration, stacking,
            assembly, suffix=f"{integration}_hetero",
        )


def _single_die(reference: ChipDesign) -> Die:
    if reference.die_count != 1:
        raise DesignError(
            f"split factories need a single-die 2D reference, "
            f"{reference.name!r} has {reference.die_count}"
        )
    return reference.dies[0]


def _derived_design(
    reference: ChipDesign,
    dies: tuple[Die, ...],
    integration: str,
    stacking: StackingStyle,
    assembly: AssemblyFlow,
    suffix: str,
) -> ChipDesign:
    """Common tail of the split factories: fix flows per family."""
    from ..config.parameters import DEFAULT_PARAMETERS

    spec = DEFAULT_PARAMETERS.integration_spec(integration)
    if spec.is_2d:
        raise DesignError("cannot split a 2D reference into a 2D design")
    if spec.is_2_5d:
        stacking = StackingStyle.NA
        if assembly not in spec.allowed_assembly:
            assembly = spec.allowed_assembly[0]
    if spec.name == "m3d":
        stacking = StackingStyle.F2B
        assembly = AssemblyFlow.NA
    return ChipDesign(
        name=f"{reference.name}_{suffix}",
        dies=dies,
        integration=spec.name,
        stacking=stacking,
        assembly=assembly,
        package=reference.package,
        throughput_tops=reference.throughput_tops,
    )
