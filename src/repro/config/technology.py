"""Process-node (foundry) parameter database.

One :class:`ProcessNode` record per logic technology from 3 nm to 28 nm,
covering every foundry-related parameter of the paper's Table 2:

* ``feature_nm`` (λ) — drawn feature size used by the gate-area model
  A_gate = N_g·β·λ² (Eq. 8);
* ``beta`` (β) — dimensionless gate-area scaling term, paper range 450–850
  (Stow ISVLSI'16); calibrated per node against published die sizes
  (e.g. NVIDIA ORIN ≈ 455 mm² for 17 B devices at 7 nm ⇒ β ≈ 550);
* ``epa_kwh_per_cm2`` (EPA) — fab electricity per wafer area at the node's
  *maximum* BEOL stack, ACT-informed (Gupta ISCA'22 / imec PPACE);
* ``gpa_kg_per_cm2`` / ``mpa_kg_per_cm2`` (GPA/MPA) — direct fab gas and
  raw-material emissions per area, paper range 0.1–0.5 kg CO₂/cm²;
* ``defect_density_per_cm2`` (D₀) and ``alpha`` — negative-binomial yield
  parameters of Eq. 15, from the Chiplet Actuary cost model (Feng DAC'22).
  7 nm and 14 nm values are calibrated so the Lakefield validation yields of
  Sec. 4.2 (89.3 % logic / 88.4 % memory in D2W, 79.7 % W2W) reproduce;
* ``max_beol_layers`` — upper bound on metal layers (Table 2 input);
* ``beol_carbon_fraction`` — share of per-wafer carbon attributable to the
  BEOL at the maximum layer count. 3D-Carbon differs from ACT+ by scaling
  wafer carbon with the *estimated* layer count (Sec. 4.1), so EPA/GPA are
  split into a FEOL part and a per-layer part using this fraction;
* ``tsv_diameter_um`` (D_TSV) — per-node TSV size, paper range 0.3–25 µm,
  and ``miv_diameter_um`` for monolithic 3D (< 0.6 µm, Kim DAC'21);
* ``sram_density_factor`` — area of an SRAM "gate" relative to a logic gate
  at this node; used by the heterogeneous die split of Sec. 5 where memory
  moves to an older node (SRAM bit cells scale worse than logic but start
  far denser than a β·λ² logic gate).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

from ..errors import ParameterError
from .table import RecordTable, unknown_name


@dataclass(frozen=True)
class ProcessNode:
    """All per-node foundry parameters used by the carbon model."""

    name: str
    feature_nm: float
    beta: float
    epa_kwh_per_cm2: float
    gpa_kg_per_cm2: float
    mpa_kg_per_cm2: float
    defect_density_per_cm2: float
    alpha: float
    max_beol_layers: int
    beol_carbon_fraction: float = 0.45
    tsv_diameter_um: float = 5.0
    miv_diameter_um: float = 0.6
    sram_density_factor: float = 0.25
    # Rent's-rule wiring parameters (Table 2: N_fan 1–5, p 0.6–0.8, ω = 3.6λ).
    # fanout = 1.0 calibrates Eq. 10 so flagship 2D SoCs land just below
    # their node's maximum metal count (ORIN ≈ 12.7 of 13 at 7 nm).
    rent_exponent: float = 0.70
    fanout: float = 1.0
    wiring_efficiency: float = 0.50

    def __post_init__(self) -> None:
        checks = [
            ("feature_nm", self.feature_nm, 1.0, 1000.0),
            ("beta", self.beta, 100.0, 2000.0),
            ("epa_kwh_per_cm2", self.epa_kwh_per_cm2, 0.05, 10.0),
            ("gpa_kg_per_cm2", self.gpa_kg_per_cm2, 0.0, 1.0),
            ("mpa_kg_per_cm2", self.mpa_kg_per_cm2, 0.0, 1.0),
            ("defect_density_per_cm2", self.defect_density_per_cm2, 0.0, 5.0),
            ("alpha", self.alpha, 0.5, 100.0),
            ("beol_carbon_fraction", self.beol_carbon_fraction, 0.0, 0.9),
            ("tsv_diameter_um", self.tsv_diameter_um, 0.1, 50.0),
            ("miv_diameter_um", self.miv_diameter_um, 0.01, 1.0),
            ("sram_density_factor", self.sram_density_factor, 0.01, 1.5),
            ("rent_exponent", self.rent_exponent, 0.1, 0.95),
            ("fanout", self.fanout, 1.0, 5.0),
            ("wiring_efficiency", self.wiring_efficiency, 0.05, 1.0),
        ]
        for label, value, low, high in checks:
            if not low <= value <= high:
                raise ParameterError(
                    f"{self.name}: {label}={value} outside [{low}, {high}]"
                )
        if self.max_beol_layers < 1:
            raise ParameterError(
                f"{self.name}: max_beol_layers must be >= 1, "
                f"got {self.max_beol_layers}"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def wire_pitch_nm(self) -> float:
        """Routable wire pitch ω = 3.6·λ (Table 2, Stow ISVLSI'16)."""
        return 3.6 * self.feature_nm

    @property
    def gate_area_um2(self) -> float:
        """Area of one standard gate: β·λ² in µm²."""
        lam_um = self.feature_nm / 1000.0
        return self.beta * lam_um * lam_um

    @cached_property
    def beol_split(self) -> "tuple[float, float, float, float]":
        """Eq. 6's EPA and GPA, each split into a FEOL part and a part per
        metal layer: ``(epa_feol, epa_per_layer, gpa_feol, gpa_per_layer)``.

        3D-Carbon scales wafer carbon with the estimated metal count
        (Sec. 4.1): ``EPA(L) = epa_feol + L · epa_per_layer``, and GPA
        likewise. Computed once per node record.
        """
        fraction = self.beol_carbon_fraction
        return (
            self.epa_kwh_per_cm2 * (1.0 - fraction),
            self.epa_kwh_per_cm2 * fraction / self.max_beol_layers,
            self.gpa_kg_per_cm2 * (1.0 - fraction),
            self.gpa_kg_per_cm2 * fraction / self.max_beol_layers,
        )

    def with_overrides(self, **overrides: float) -> "ProcessNode":
        """Return a copy with the given fields replaced (validated again)."""
        return replace(self, **overrides)


def _node(name: str, **kwargs) -> ProcessNode:
    return ProcessNode(name=name, **kwargs)


#: Built-in node table, 3–28 nm (paper Table 2 "Process 3~28 nm").
#: EPA/GPA values follow the ACT per-node characterization; D₀/α follow
#: Chiplet Actuary with the 7/14 nm calibration described in DESIGN.md §5.
_BUILTIN_NODES: tuple[ProcessNode, ...] = (
    _node(
        "3nm", feature_nm=3.0, beta=520.0,
        epa_kwh_per_cm2=2.75, gpa_kg_per_cm2=0.30, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.20, alpha=10.0, max_beol_layers=16,
        tsv_diameter_um=0.3, rent_exponent=0.63,
    ),
    _node(
        "5nm", feature_nm=5.0, beta=530.0,
        epa_kwh_per_cm2=2.75, gpa_kg_per_cm2=0.25, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.15, alpha=10.0, max_beol_layers=15,
        tsv_diameter_um=0.5, rent_exponent=0.63,
    ),
    _node(
        "7nm", feature_nm=7.0, beta=550.0,
        epa_kwh_per_cm2=1.52, gpa_kg_per_cm2=0.18, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.139, alpha=10.0, max_beol_layers=13,
        tsv_diameter_um=1.0, rent_exponent=0.62,
    ),
    _node(
        "10nm", feature_nm=10.0, beta=550.0,
        epa_kwh_per_cm2=1.475, gpa_kg_per_cm2=0.15, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.11, alpha=10.0, max_beol_layers=13,
        tsv_diameter_um=2.0, rent_exponent=0.62,
    ),
    _node(
        "12nm", feature_nm=12.0, beta=555.0,
        epa_kwh_per_cm2=1.30, gpa_kg_per_cm2=0.14, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.10, alpha=10.0, max_beol_layers=12,
        tsv_diameter_um=3.0, rent_exponent=0.62,
    ),
    _node(
        "14nm", feature_nm=14.0, beta=560.0,
        epa_kwh_per_cm2=1.20, gpa_kg_per_cm2=0.13, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.09, alpha=10.0, max_beol_layers=12,
        tsv_diameter_um=4.0, rent_exponent=0.62,
    ),
    _node(
        "16nm", feature_nm=16.0, beta=560.0,
        epa_kwh_per_cm2=1.20, gpa_kg_per_cm2=0.125, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.09, alpha=10.0, max_beol_layers=11,
        tsv_diameter_um=5.0, rent_exponent=0.61,
    ),
    _node(
        "20nm", feature_nm=20.0, beta=600.0,
        epa_kwh_per_cm2=1.00, gpa_kg_per_cm2=0.12, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.08, alpha=10.0, max_beol_layers=10,
        tsv_diameter_um=8.0, rent_exponent=0.61,
    ),
    _node(
        "22nm", feature_nm=22.0, beta=600.0,
        epa_kwh_per_cm2=0.95, gpa_kg_per_cm2=0.11, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.075, alpha=10.0, max_beol_layers=10,
        tsv_diameter_um=10.0, rent_exponent=0.61,
    ),
    _node(
        "28nm", feature_nm=28.0, beta=620.0,
        epa_kwh_per_cm2=0.90, gpa_kg_per_cm2=0.10, mpa_kg_per_cm2=0.50,
        defect_density_per_cm2=0.07, alpha=10.0, max_beol_layers=9,
        tsv_diameter_um=15.0, rent_exponent=0.6,
    ),
    # Mature nodes used for passive interposers and bridge dies. A passive
    # interposer carries no FEOL transistors, so its EPA/GPA/MPA are far
    # below logic wafers (BEOL-only processing).
    _node(
        "65nm", feature_nm=65.0, beta=700.0,
        epa_kwh_per_cm2=0.50, gpa_kg_per_cm2=0.08, mpa_kg_per_cm2=0.40,
        defect_density_per_cm2=0.05, alpha=10.0, max_beol_layers=7,
        tsv_diameter_um=25.0, rent_exponent=0.6,
    ),
    _node(
        "interposer", feature_nm=65.0, beta=700.0,
        epa_kwh_per_cm2=0.50, gpa_kg_per_cm2=0.05, mpa_kg_per_cm2=0.30,
        defect_density_per_cm2=0.05, alpha=10.0, max_beol_layers=4,
        beol_carbon_fraction=0.60, tsv_diameter_um=25.0, rent_exponent=0.6,
    ),
)


def _canonical_node(node) -> str:
    """Normalize a node spelling to the table key (``7`` → ``"7nm"``)."""
    if isinstance(node, (int, float)):
        value = float(node)
        return f"{int(value)}nm" if value == int(value) else f"{value}nm"
    text = str(node).strip().lower().replace(" ", "")
    if re.fullmatch(r"\d+(\.\d+)?", text):
        text += "nm"
    return text


def TechnologyTable(nodes: Iterable[ProcessNode] = _BUILTIN_NODES) -> RecordTable:
    """Process nodes by name; ``"7nm"``, ``"7 nm"``, ``"7"`` and ``7`` name
    the same record."""
    return RecordTable(
        nodes, ProcessNode, _canonical_node,
        unknown_name("process node", "known nodes"),
    )


#: Default table instance shared by :class:`repro.config.parameters.ParameterSet`.
DEFAULT_TECHNOLOGY_TABLE = TechnologyTable()
