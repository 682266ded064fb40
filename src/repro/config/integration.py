"""Integration-technology database (paper Table 1 and Fig. 2).

Each :class:`IntegrationSpec` describes one of the 3D/2.5D options studied by
the paper plus the 2D monolithic reference. The interface-physics numbers
(data rate, I/O density, energy per bit, pitch) are transcribed from the
vertical-stack diagram of Fig. 2; the deployment attributes (which bonding
method, whether I/O driver area and I/O power apply, how the package scales)
come from Secs. 2.1, 3.2 and 3.3:

=====================  =========  ==============  ============  ==========
technology             data rate  I/O density     energy/bit    pitch
=====================  =========  ==============  ============  ==========
MCM 2.5D               4 Gbps     50 /mm/layer    500–2000 fJ   —
InFO 2.5D              4 Gbps     100 /mm/layer   250 fJ        —
EMIB 2.5D              3.4 Gbps   200–500 /mm/l   150 fJ        —
Si-interposer 2.5D     3.2–6.4 G  500 /mm/layer   120 fJ        —
micro-bump 3D          6 Gbps     (from pitch)    140 fJ        10–50 µm
hybrid-bond 3D         5 Gbps     (from pitch)    200 fJ        1–5 µm
monolithic 3D (M3D)    15 Gbps    (from MIV)      <5 fJ         0.6 µm MIV
=====================  =========  ==============  ============  ==========

``interconnect_power_saving`` (κ) models the use-phase benefit of shorter
vertical interconnects quoted in Sec. 2.2.2 ("operational carbon benefits
from shorter interconnect lengths"); magnitudes follow the PPA study of
Kim et al. (DAC'21): M3D ≈ 8 %, hybrid ≈ 3 %, micro-bump ≈ 1 % of die power.
2.5D technologies gain nothing (wires get longer, not shorter).

``io_area_ratio`` is the γ of Eq. 9 (I/O driver area as a fraction of gate
area, from the Chiplet Actuary model); ``io_power_counted`` implements the
Sec. 3.3 rule that only 2.5D ICs and micro-bumping 3D ICs pay interface
power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping

from ..errors import ParameterError
from .table import RecordTable, unknown_name


class IntegrationFamily(str, Enum):
    """Top-level classification from Table 1."""

    PLANAR_2D = "2D"
    THREE_D = "3D"
    TWO_FIVE_D = "2.5D"


class BondingMethod(str, Enum):
    """Die-attach technology; drives Eq. 11 and the Table 3 yields."""

    NONE = "none"          # 2D and M3D (sequential processing, no bond step)
    C4 = "c4"              # flip-chip bumps for 2.5D die attach
    MICRO_BUMP = "micro"   # µ-bump 3D stacking
    HYBRID = "hybrid"      # Cu-Cu hybrid bonding


class SubstrateKind(str, Enum):
    """What (if any) extra substrate is manufactured (Eq. 13–14)."""

    NONE = "none"
    ORGANIC = "organic"        # MCM: package substrate, folded into packaging
    RDL = "rdl"                # InFO redistribution layer
    EMIB_BRIDGE = "emib"       # embedded silicon bridge
    SILICON_INTERPOSER = "si"  # full silicon interposer


class StackingStyle(str, Enum):
    """Face-to-face vs face-to-back for 3D stacks (Table 1)."""

    F2F = "f2f"
    F2B = "f2b"
    NA = "n/a"


class AssemblyFlow(str, Enum):
    """Assembly order; selects the Table 3 yield composition."""

    D2W = "d2w"
    W2W = "w2w"
    CHIP_FIRST = "chip_first"
    CHIP_LAST = "chip_last"
    NA = "n/a"


@dataclass(frozen=True)
class IntegrationSpec:
    """One integration technology and its interface/assembly physics."""

    name: str
    family: IntegrationFamily
    bonding: BondingMethod
    substrate: SubstrateKind
    data_rate_gbps: float
    energy_per_bit_fj: float
    io_density_per_mm_per_layer: float
    connection_pitch_um: float | None = None
    io_area_ratio: float = 0.0          # γ of Eq. 9
    io_power_counted: bool = False      # Sec. 3.3 rule
    interconnect_power_saving: float = 0.0  # κ, fraction of die power saved
    #: Gate-area multiplier from shorter interconnects: fine-pitch vertical
    #: integration removes repeaters/buffers (Kim DAC'21 PPA study reports
    #: up to ~20 % cell-area reduction for M3D, a few % for hybrid bonding).
    gate_area_factor: float = 1.0
    #: Metal layers removed from each die's BEOL stack because inter-die
    #: connections replace top-level global routing (Kim DAC'21).
    beol_layers_saved: int = 0
    max_dies: int | None = None         # Table 1: hybrid F2F limited to 2
    allowed_stacking: tuple[StackingStyle, ...] = (StackingStyle.NA,)
    allowed_assembly: tuple[AssemblyFlow, ...] = (AssemblyFlow.NA,)
    bandwidth_matches_2d: bool = False  # Sec. 3.4: 3D matches on-chip BW

    def __post_init__(self) -> None:
        if self.data_rate_gbps < 0 or self.energy_per_bit_fj < 0:
            raise ParameterError(f"{self.name}: interface physics must be >= 0")
        if self.io_density_per_mm_per_layer < 0:
            raise ParameterError(f"{self.name}: I/O density must be >= 0")
        if not 0.0 <= self.io_area_ratio <= 1.0:
            raise ParameterError(
                f"{self.name}: io_area_ratio must lie in [0, 1] (Table 2)"
            )
        if not 0.0 <= self.interconnect_power_saving < 0.5:
            raise ParameterError(
                f"{self.name}: interconnect_power_saving must lie in [0, 0.5)"
            )
        if self.max_dies is not None and self.max_dies < 2:
            raise ParameterError(f"{self.name}: max_dies must be >= 2")
        if not 0.5 <= self.gate_area_factor <= 1.0:
            raise ParameterError(
                f"{self.name}: gate_area_factor must lie in [0.5, 1]"
            )
        if self.beol_layers_saved < 0:
            raise ParameterError(
                f"{self.name}: beol_layers_saved must be >= 0"
            )

    @property
    def is_3d(self) -> bool:
        return self.family is IntegrationFamily.THREE_D

    @property
    def is_2_5d(self) -> bool:
        return self.family is IntegrationFamily.TWO_FIVE_D

    @property
    def is_2d(self) -> bool:
        return self.family is IntegrationFamily.PLANAR_2D

    def with_overrides(self, **overrides) -> "IntegrationSpec":
        """Copy with fields replaced (re-validated)."""
        return replace(self, **overrides)


def _pitch_density_per_mm(pitch_um: float) -> float:
    """Linear connection density implied by an area-array pitch (1/mm)."""
    return 1000.0 / pitch_um


_BUILTIN_SPECS: tuple[IntegrationSpec, ...] = (
    IntegrationSpec(
        name="2d",
        family=IntegrationFamily.PLANAR_2D,
        bonding=BondingMethod.NONE,
        substrate=SubstrateKind.NONE,
        data_rate_gbps=0.0,
        energy_per_bit_fj=0.0,
        io_density_per_mm_per_layer=0.0,
        bandwidth_matches_2d=True,
    ),
    IntegrationSpec(
        name="micro_3d",
        family=IntegrationFamily.THREE_D,
        bonding=BondingMethod.MICRO_BUMP,
        substrate=SubstrateKind.NONE,
        data_rate_gbps=6.0,
        energy_per_bit_fj=140.0,
        io_density_per_mm_per_layer=_pitch_density_per_mm(30.0),
        connection_pitch_um=30.0,   # Fig. 2: 10–50 µm
        io_area_ratio=0.05,
        io_power_counted=True,      # Sec. 3.3: micro-bump 3D pays I/O power
        interconnect_power_saving=0.012,
        gate_area_factor=0.96,
        beol_layers_saved=1,
        allowed_stacking=(StackingStyle.F2F, StackingStyle.F2B),
        allowed_assembly=(AssemblyFlow.D2W, AssemblyFlow.W2W),
        bandwidth_matches_2d=True,  # Sec. 3.4 assumption for 3D ICs
    ),
    IntegrationSpec(
        name="hybrid_3d",
        family=IntegrationFamily.THREE_D,
        bonding=BondingMethod.HYBRID,
        substrate=SubstrateKind.NONE,
        data_rate_gbps=5.0,
        energy_per_bit_fj=200.0,
        io_density_per_mm_per_layer=_pitch_density_per_mm(3.0),
        connection_pitch_um=3.0,    # Fig. 2: 1–5 µm
        io_area_ratio=0.0,          # bond pads live in the metal stack
        io_power_counted=False,
        interconnect_power_saving=0.03,
        gate_area_factor=0.94,
        beol_layers_saved=3,
        allowed_stacking=(StackingStyle.F2F, StackingStyle.F2B),
        allowed_assembly=(AssemblyFlow.D2W, AssemblyFlow.W2W),
        bandwidth_matches_2d=True,
    ),
    IntegrationSpec(
        name="m3d",
        family=IntegrationFamily.THREE_D,
        bonding=BondingMethod.NONE,  # sequential manufacturing, no bond step
        substrate=SubstrateKind.NONE,
        data_rate_gbps=15.0,
        energy_per_bit_fj=5.0,
        io_density_per_mm_per_layer=_pitch_density_per_mm(0.6),
        connection_pitch_um=0.6,    # MIV < 0.6 µm (Kim DAC'21)
        io_area_ratio=0.0,
        io_power_counted=False,
        interconnect_power_saving=0.082,
        gate_area_factor=0.80,
        beol_layers_saved=4,
        max_dies=2,                 # Table 1: M3D F2B, 2 tiers
        allowed_stacking=(StackingStyle.F2B,),
        allowed_assembly=(AssemblyFlow.NA,),
        bandwidth_matches_2d=True,
    ),
    IntegrationSpec(
        name="mcm",
        family=IntegrationFamily.TWO_FIVE_D,
        bonding=BondingMethod.C4,
        substrate=SubstrateKind.ORGANIC,
        data_rate_gbps=4.0,
        energy_per_bit_fj=1000.0,   # Fig. 2: 500–2000 fJ/bit SerDes
        io_density_per_mm_per_layer=50.0,
        io_area_ratio=0.03,
        io_power_counted=True,
        allowed_assembly=(AssemblyFlow.CHIP_LAST,),
    ),
    IntegrationSpec(
        name="info",
        family=IntegrationFamily.TWO_FIVE_D,
        bonding=BondingMethod.C4,
        substrate=SubstrateKind.RDL,
        data_rate_gbps=4.0,
        energy_per_bit_fj=250.0,
        io_density_per_mm_per_layer=100.0,
        io_area_ratio=0.03,
        io_power_counted=True,
        allowed_assembly=(AssemblyFlow.CHIP_FIRST, AssemblyFlow.CHIP_LAST),
    ),
    IntegrationSpec(
        name="emib",
        family=IntegrationFamily.TWO_FIVE_D,
        bonding=BondingMethod.C4,
        substrate=SubstrateKind.EMIB_BRIDGE,
        data_rate_gbps=3.4,
        energy_per_bit_fj=150.0,
        io_density_per_mm_per_layer=350.0,  # Fig. 2: 200–500 /mm/layer
        io_area_ratio=0.03,
        io_power_counted=True,
        beol_layers_saved=1,    # dense bridge links offload global routing
        allowed_assembly=(AssemblyFlow.CHIP_LAST,),
    ),
    IntegrationSpec(
        name="si_interposer",
        family=IntegrationFamily.TWO_FIVE_D,
        bonding=BondingMethod.C4,
        substrate=SubstrateKind.SILICON_INTERPOSER,
        data_rate_gbps=4.8,         # Fig. 2: 3.2–6.4 Gbps
        energy_per_bit_fj=120.0,
        io_density_per_mm_per_layer=500.0,
        io_area_ratio=0.03,
        io_power_counted=True,
        beol_layers_saved=1,    # dense interposer links offload global routing
        allowed_assembly=(AssemblyFlow.CHIP_LAST,),
    ),
)

#: The full Table 1 span, 2D first, in presentation order: the default
#: integration axis of the sweeps and the design-space searches.
TABLE1_INTEGRATIONS: tuple[str, ...] = tuple(
    spec.name for spec in _BUILTIN_SPECS
)

#: Convenient aliases the integration table accepts.
_ALIASES: Mapping[str, str] = {
    "2d": "2d",
    "planar": "2d",
    "monolithic_2d": "2d",
    "micro": "micro_3d",
    "micro_bump": "micro_3d",
    "microbump_3d": "micro_3d",
    "micro_bump_3d": "micro_3d",
    "hybrid": "hybrid_3d",
    "hybrid_bonding": "hybrid_3d",
    "hybrid_bonding_3d": "hybrid_3d",
    "m3d": "m3d",
    "monolithic_3d": "m3d",
    "mcm": "mcm",
    "info": "info",
    "info_2.5d": "info",
    "emib": "emib",
    "si": "si_interposer",
    "si_int": "si_interposer",
    "silicon_interposer": "si_interposer",
    "interposer": "si_interposer",
}


def _canonical_integration(name) -> str:
    """Normalize a spelling to the table key (``"Hybrid-3D"`` → ``"hybrid_3d"``)."""
    text = str(name).strip().lower().replace(" ", "_").replace("-", "_")
    return _ALIASES.get(text, text)


def IntegrationTable(
    specs: Iterable[IntegrationSpec] = _BUILTIN_SPECS,
) -> RecordTable:
    """Integration technologies by name, aliases included."""
    return RecordTable(
        specs, IntegrationSpec, _canonical_integration,
        unknown_name("integration technology"),
    )


DEFAULT_INTEGRATION_TABLE = IntegrationTable()
