"""Rent's-rule substrates: wirelength distribution, TSV counts, partitions."""

from .davis import (
    WirelengthDistribution,
    average_wirelength_gate_pitches,
    average_wirelength_mm,
    donath_average_wirelength,
)
from .partition import (
    GatePartition,
    heterogeneous_partitions,
    homogeneous_partitions,
)
from .tsv import (
    DEFAULT_EXTERNAL_IO_COUNT,
    DEFAULT_KEEPOUT_RATIO,
    DEFAULT_RENT_COEFFICIENT,
    f2b_tsv_count,
    f2f_tsv_count,
    miv_area_mm2,
    rent_terminal_count,
    tsv_area_mm2,
)

__all__ = [
    "DEFAULT_EXTERNAL_IO_COUNT",
    "DEFAULT_KEEPOUT_RATIO",
    "DEFAULT_RENT_COEFFICIENT",
    "GatePartition",
    "WirelengthDistribution",
    "average_wirelength_gate_pitches",
    "average_wirelength_mm",
    "donath_average_wirelength",
    "f2b_tsv_count",
    "f2f_tsv_count",
    "heterogeneous_partitions",
    "homogeneous_partitions",
    "miv_area_mm2",
    "rent_terminal_count",
    "tsv_area_mm2",
]
