"""2.5D substrate characterization (Eq. 13–14).

Covers the three explicitly manufactured substrates:

* **silicon interposer** — area ``A = s_Si_int · Σ A_die`` (Eq. 13),
  manufactured like a die on the BEOL-only ``interposer`` node record
  (no FEOL transistors for a passive interposer) with a substrate yield
  from the Eq. 15 distribution;
* **EMIB bridge** — area ``A = s_EMIB · D_gap · Σ l_adjacent`` (Eq. 14):
  small silicon slivers spanning adjacent die edges;
* **InFO RDL** — same geometric model as EMIB per Eq. 14, but costed with a
  dedicated RDL carbon-per-area characterization ``CPA_RDL`` (Table 2,
  imec PPACE + Nagapurkar SUSCOM'22), since the fan-out RDL is built from
  polymer/Cu build-up layers, not a processed silicon wafer.

``D_gap`` is the die-to-die gap (0.5–2 mm, Table 2) and the scale factors
``s ≥ 1`` absorb keep-out and routing margins (Chiplet Actuary).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ParameterError


@dataclass(frozen=True)
class SubstrateParameters:
    """Geometry scale factors and carbon factors for 2.5D substrates."""

    #: Eq. 13 scale: interposer area over total die area (≥ 1).
    si_interposer_scale: float = 1.20
    #: Eq. 14 scale for EMIB bridges.
    emib_scale: float = 2.0
    #: Eq. 14 scale for InFO RDL. The fan-out RDL spans the whole package,
    #: not just the die-to-die gap, so the scale is an order of magnitude
    #: above EMIB's bridge (Sec. 5.1: "large substrate areas").
    rdl_scale: float = 30.0
    #: Die-to-die gap D_gap in mm (Table 2: 0.5–2 mm).
    die_gap_mm: float = 1.0
    #: Node record used to manufacture silicon substrates (interposer/EMIB).
    silicon_node: str = "interposer"
    #: RDL carbon per area, kg CO₂/cm² (CPA_RDL characterization:
    #: multi-layer polymer/Cu build-up with sputtered seed, Nagapurkar'22).
    rdl_cpa_kg_per_cm2: float = 0.50
    #: RDL per-substrate yield; fan-out warpage keeps it low (Sec. 5.1:
    #: "low substrate yields").
    rdl_yield: float = 0.88
    #: Organic MCM substrate yield (laminate, mature).
    organic_yield: float = 0.99
    #: Silicon-interposer wafer diameter (mm); CoWoS runs on 300 mm.
    wafer_diameter_mm: float = 300.0

    def __post_init__(self) -> None:
        for label, value in (
            ("si_interposer_scale", self.si_interposer_scale),
            ("emib_scale", self.emib_scale),
            ("rdl_scale", self.rdl_scale),
        ):
            if value < 1.0:
                raise ParameterError(f"{label} must be >= 1 (Table 2), got {value}")
        if not 0.1 <= self.die_gap_mm <= 5.0:
            raise ParameterError(
                f"die_gap_mm={self.die_gap_mm} outside [0.1, 5] "
                f"(Table 2 range is 0.5–2 mm)"
            )
        if self.rdl_cpa_kg_per_cm2 < 0:
            raise ParameterError("rdl_cpa_kg_per_cm2 must be >= 0")
        for label, value in (
            ("rdl_yield", self.rdl_yield),
            ("organic_yield", self.organic_yield),
        ):
            if not 0.0 < value <= 1.0:
                raise ParameterError(f"{label} must lie in (0, 1], got {value}")
        if self.wafer_diameter_mm <= 0:
            raise ParameterError("wafer_diameter_mm must be positive")

    def with_overrides(self, **overrides) -> "SubstrateParameters":
        return replace(self, **overrides)


DEFAULT_SUBSTRATE_PARAMETERS = SubstrateParameters()
