"""Gate-count partitioning math for die splits (Sec. 5 case studies).

The DRIVE case study derives hypothetical 3D/2.5D designs from a 2D IC via
two division approaches:

* **homogeneous** — split the 2D gate count into ``n`` similar partitions;
* **heterogeneous** — isolate memory and I/O gates onto a separate die
  implemented in an older node (28 nm in the paper), keeping logic on the
  original node.

This module performs the pure gate-count arithmetic; building actual
:class:`repro.core.design.Die` objects happens in :mod:`repro.core.design`
(to keep this layer free of design-object dependencies) and the DRIVE study
composes both.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError


@dataclass(frozen=True)
class GatePartition:
    """One partition of a netlist: gate count plus its workload share."""

    gate_count: float
    workload_share: float
    is_memory: bool = False

    def __post_init__(self) -> None:
        if self.gate_count <= 0:
            raise ParameterError(
                f"partition gate count must be positive, got {self.gate_count}"
            )
        if not 0.0 <= self.workload_share <= 1.0:
            raise ParameterError(
                f"workload share must lie in [0, 1], got {self.workload_share}"
            )


def homogeneous_partitions(gate_count: float, n_dies: int) -> list[GatePartition]:
    """Split ``gate_count`` into ``n_dies`` equal logic partitions.

    Workload shares are equal: each die performs 1/n of the fixed-throughput
    computation (Eq. 17 sums Th/Eff over dies).
    """
    if gate_count <= 0:
        raise ParameterError(f"gate count must be positive, got {gate_count}")
    if n_dies < 2:
        raise ParameterError(f"a split needs >= 2 dies, got {n_dies}")
    share = 1.0 / n_dies
    return [
        GatePartition(gate_count / n_dies, workload_share=share)
        for _ in range(n_dies)
    ]


def heterogeneous_partitions(
    gate_count: float, memory_fraction: float = 0.15
) -> list[GatePartition]:
    """Isolate memory+I/O gates from logic (two partitions).

    ``memory_fraction`` is the share of devices that are SRAM/I/O and move
    to the older node; the paper notes the resulting memory die is *small*,
    which bounds the fraction well below one half. The logic partition
    carries the entire compute workload.
    """
    if gate_count <= 0:
        raise ParameterError(f"gate count must be positive, got {gate_count}")
    if not 0.0 < memory_fraction < 0.5:
        raise ParameterError(
            f"memory fraction must lie in (0, 0.5) — the paper's memory die "
            f"is smaller than the logic die — got {memory_fraction}"
        )
    logic = GatePartition(
        gate_count * (1.0 - memory_fraction), workload_share=1.0
    )
    memory = GatePartition(
        gate_count * memory_fraction, workload_share=0.0, is_memory=True
    )
    return [logic, memory]
