"""Surveyed operational-power data (Sec. 3.3 and Table 4).

When no third-party power plug-in provides ``Eff_die`` directly, 3D-Carbon
falls back to surveyed energy-efficiency characterizations. This module
carries:

* the NVIDIA DRIVE series specifications of Table 4 (the case-study
  inputs), extended with the products' advertised DL throughput, which the
  fixed-throughput workload model of Eq. 16–17 needs;
* a generic per-node efficiency survey (TOPS/W for inference accelerators)
  used for designs without product data, following the survey style of
  Kim et al. (DAC'21).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ParameterError, UnknownTechnologyError


@dataclass(frozen=True)
class DeviceSurvey:
    """One surveyed device: the columns of Table 4 plus throughput."""

    name: str
    node: str
    gate_count_billion: float
    efficiency_tops_per_w: float
    announced_year: int
    #: Advertised deep-learning throughput (TOPS) — the fixed-throughput
    #: requirement of the AV workload (Sudhakar IEEE Micro'23).
    throughput_tops: float

    def __post_init__(self) -> None:
        if self.gate_count_billion <= 0:
            raise ParameterError(f"{self.name}: gate count must be positive")
        if self.efficiency_tops_per_w <= 0:
            raise ParameterError(f"{self.name}: efficiency must be positive")
        if self.throughput_tops <= 0:
            raise ParameterError(f"{self.name}: throughput must be positive")

    @property
    def gate_count(self) -> float:
        """Gate count as an absolute number (Table 4 lists billions)."""
        return self.gate_count_billion * 1.0e9


#: Table 4 — NVIDIA GPU DRIVE series specifications [25], with advertised
#: platform DL TOPS: PX 2 ≈ 24, XAVIER ≈ 32, ORIN ≈ 254, THOR ≈ 2000.
NVIDIA_DRIVE_SERIES: tuple[DeviceSurvey, ...] = (
    DeviceSurvey("PX2", "16nm", 15.3, 0.75, 2016, 24.0),
    DeviceSurvey("XAVIER", "12nm", 21.0, 1.00, 2017, 32.0),
    DeviceSurvey("ORIN", "7nm", 17.0, 2.74, 2019, 254.0),
    DeviceSurvey("THOR", "5nm", 77.0, 12.5, 2022, 2000.0),
)


#: Generic surveyed inference efficiency by node (TOPS/W), used when a die
#: has no product-level survey entry (Kim DAC'21-style scaling survey).
SURVEYED_EFFICIENCY_TOPS_PER_W: Mapping[str, float] = {
    "28nm": 0.4,
    "22nm": 0.5,
    "20nm": 0.55,
    "16nm": 0.75,
    "14nm": 0.85,
    "12nm": 1.0,
    "10nm": 1.6,
    "7nm": 2.74,
    "5nm": 12.5,
    "3nm": 20.0,
}


def surveyed_efficiency(node_name: str) -> float:
    """Surveyed TOPS/W for a node, for dies without product data."""
    try:
        return SURVEYED_EFFICIENCY_TOPS_PER_W[node_name]
    except KeyError:
        known = ", ".join(sorted(SURVEYED_EFFICIENCY_TOPS_PER_W))
        raise UnknownTechnologyError(
            f"no surveyed efficiency for node {node_name!r}; known: {known}"
        ) from None
