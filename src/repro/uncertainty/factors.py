"""Declarative uncertainty factors: targets, specs, and named factor sets.

The paper's headline claim is carbon estimates *with uncertainty* over
the Table 2 factors — and honest cross-model comparison (Sec. 4)
requires each carbon backend to carry its *own* parameter uncertainty,
the way ACT v3-style models ship their own parameter tables and
envelopes. This module is the declarative half of that layer:

* :class:`FactorTarget` — the single field a factor scales, addressed by
  (kind, key, field) into the parameter databases, plus the ``"model"``
  kind for backend-internal constants (ACT's fixed yield, the GaBi CPA
  table, the first-order intensity) that live outside
  :class:`~repro.config.parameters.ParameterSet`;
* :class:`FactorSpec` — one uncertain input: name, multiplier bounds, a
  distribution (``triangular`` / ``uniform`` / ``lognormal``) and an
  optional correlation ``group`` (factors sharing a group draw from one
  underlying quantile per sample — they move together);
* :class:`FactorSet` — a named, fingerprintable tuple of specs. The
  fingerprint (and its SHA-256 :meth:`~FactorSet.digest`) joins the
  service-store content keys, so two Monte-Carlo studies share a cached
  summary exactly when they drew from the same set;
* the built-in sets — :func:`table2_factor_set` (3D-Carbon's own) and
  the literature-grounded per-backend sets for ACT/ACT+
  (:func:`act_factor_set`), LCA reports (:func:`lca_factor_set`) and the
  first-order model (:func:`first_order_factor_set`).

The vectorized half — drawing multipliers and applying rows — lives in
:mod:`repro.uncertainty.plan`; this module stays numpy-free so the CLI
and the evaluate-only service deployments never pay the import.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from ..baselines.lca import GABI_FINEST_NODE
from ..config.integration import AssemblyFlow, BondingMethod
from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..errors import ParameterError

#: Distributions a :class:`FactorSpec` may draw its multiplier from.
DISTRIBUTIONS = ("triangular", "uniform", "lognormal")

#: Target kinds that address a :class:`ParameterSet` table ("params
#: scope"); the remaining kind, ``"model"``, addresses a backend-internal
#: constant and is consumed through
#: :meth:`repro.pipeline.CarbonBackend.with_model_multipliers`.
PARAMS_KINDS = ("node", "bonding", "packaging", "integration", "bandwidth")


@dataclass(frozen=True)
class FactorTarget:
    """Declarative description of the single field a factor scales.

    ``kind`` names the parameter database ("node", "bonding", "packaging",
    "integration", "bandwidth"), ``key`` addresses the record inside it,
    ``field`` the scaled attribute. The compiled perturbation plan uses
    targets to apply a whole factor row with one override per record
    instead of one copy-on-write chain per factor, and :meth:`apply`
    derives the sequential application from the same description.

    ``kind="model"`` marks a backend-internal constant instead: ``key``
    names the owning backend, ``field`` the constant the backend's
    :meth:`~repro.pipeline.CarbonBackend.with_model_multipliers` scales.
    Model targets have no :class:`ParameterSet` application.
    """

    kind: str
    key: tuple
    field: str
    clamp_to_one: bool = False

    @property
    def is_model(self) -> bool:
        return self.kind == "model"

    def record(self, params: ParameterSet):
        """The parameter-database record this target addresses.

        The one kind → record dispatch every consumer (read, apply, the
        compiled plan) routes through.
        """
        if self.kind == "node":
            return params.node(self.key[0])
        if self.kind == "bonding":
            return params.bonding.get(self.key)
        if self.kind == "packaging":
            return params.packaging.get(self.key[0])
        if self.kind == "integration":
            return params.integration_spec(self.key[0])
        if self.kind == "bandwidth":
            return params.bandwidth
        raise ParameterError(f"unknown factor-target kind {self.kind!r}")

    def read(self, params: ParameterSet) -> float:
        """The unperturbed value of the targeted field."""
        return getattr(self.record(params), self.field)

    def scale(self, value: float, multiplier: float) -> float:
        """The perturbed value — one multiplication plus the clamp."""
        scaled = value * multiplier
        if self.clamp_to_one:
            scaled = min(scaled, 1.0)
        return scaled

    def apply(self, params: ParameterSet, multiplier: float) -> ParameterSet:
        """``params`` with this field scaled — the sequential application.

        Reads the base value, scales it (clamping where declared) and
        routes through the matching ``with_*_override`` helper — exactly
        the operations the historical per-factor closures performed, so
        derived applications stay bit-identical to them.
        """
        if self.kind == "model":
            raise ParameterError(
                f"model-scoped factor target {self.field!r} has no "
                f"ParameterSet application (it scales a backend constant)"
            )
        scaled = self.scale(self.read(params), multiplier)
        override = {self.field: scaled}
        if self.kind == "node":
            return params.with_node_override(self.key[0], **override)
        if self.kind == "bonding":
            return params.with_bonding_override(
                self.key[0], self.key[1], **override
            )
        if self.kind == "packaging":
            return params.with_packaging_override(self.key[0], **override)
        if self.kind == "integration":
            return params.with_integration_override(self.key[0], **override)
        return params.with_bandwidth(**override)

    def fingerprint(self) -> tuple:
        """Value tuple for content keys (stable across sessions)."""
        return ("target", self.kind, self.key, self.field, self.clamp_to_one)


@dataclass(frozen=True)
class FactorSpec:
    """One uncertain input, fully declarative.

    ``low``/``high`` bound the multiplier: the triangular law's support
    (mode 1), the uniform's support, or the lognormal's P05/P95
    quantiles (median ``sqrt(low·high)``). ``group`` names a correlation
    group — specs sharing a group draw from one underlying quantile per
    sample, so e.g. the fab-energy factors of two process nodes move
    together while an independent defect density does not.
    """

    name: str
    low: float
    high: float
    target: FactorTarget
    distribution: str = "triangular"
    group: "str | None" = None

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ParameterError(
                f"{self.name}: distribution must be one of "
                f"{', '.join(DISTRIBUTIONS)}, got {self.distribution!r}"
            )
        if self.distribution == "triangular":
            if not 0.0 < self.low <= 1.0 <= self.high:
                raise ParameterError(
                    f"{self.name}: multipliers must straddle 1.0, "
                    f"got [{self.low}, {self.high}]"
                )
        elif not 0.0 < self.low < self.high:
            raise ParameterError(
                f"{self.name}: multiplier bounds must satisfy "
                f"0 < low < high, got [{self.low}, {self.high}]"
            )

    def apply(self, params: ParameterSet, multiplier: float) -> ParameterSet:
        """Sequential application, derived from the declarative target."""
        return self.target.apply(params, multiplier)

    def fingerprint(self) -> tuple:
        return (
            "factor", self.name, self.distribution, self.group,
            self.low, self.high, self.target.fingerprint(),
        )


def _canonical(value) -> str:
    """Session-stable rendering of a fingerprint for hashing.

    Covers exactly the shapes factor fingerprints are built from; the
    service store applies its own (richer) canonical encoding to the
    same tuples when they join content keys.
    """
    if value is None or isinstance(value, (bool, int, float)):
        return repr(value)
    if isinstance(value, str):
        return f"s{len(value)}:{value}"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(item) for item in value) + ")"
    raise ParameterError(
        f"cannot canonically encode {type(value).__name__!r} into a "
        f"factor-set digest"
    )


@dataclass(frozen=True)
class FactorSet:
    """A named, ordered, fingerprintable tuple of :class:`FactorSpec` records."""

    name: str
    specs: tuple

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def fingerprint(self) -> tuple:
        """The value tuple content keys embed: set name + every factor."""
        return (
            "factor_set",
            self.name,
            tuple(spec.fingerprint() for spec in self.specs),
        )

    def digest(self) -> str:
        """SHA-256 of the fingerprint — the set's session-stable identity."""
        return hashlib.sha256(
            _canonical(self.fingerprint()).encode("utf-8")
        ).hexdigest()

    @classmethod
    def coerce(cls, factors, name: str = "custom") -> "FactorSet":
        """``factors`` as a FactorSet (lists wrap under ``name``)."""
        if isinstance(factors, cls):
            return factors
        return cls(name=name, specs=tuple(factors))


# -- built-in factor sets -----------------------------------------------------


def table2_factor_set(
    node: str = "7nm",
    integration: str = "hybrid_3d",
    package_class: str = "fcbga",
    params: "ParameterSet | None" = None,
) -> FactorSet:
    """3D-Carbon's own Table 2 factor set for a design flavour.

    The equivalence tests pin the default Monte-Carlo/tornado paths
    built on this set bit-identical to the scalar reference. ``params
    decides factor *inclusion* (whether the integration bonds, whether
    it spends I/O area) — pass the study's own set when it overrides
    integration specs, else the defaults decide.
    """
    params = params if params is not None else DEFAULT_PARAMETERS
    def node_factor(label, low, high, field):
        return FactorSpec(
            label, low, high, FactorTarget("node", (node,), field)
        )

    specs = [
        node_factor(
            f"defect_density[{node}]", 0.5, 2.0, "defect_density_per_cm2"
        ),
        node_factor(f"fab_energy_epa[{node}]", 0.7, 1.4, "epa_kwh_per_cm2"),
        node_factor(f"raw_material_mpa[{node}]", 0.7, 1.4, "mpa_kg_per_cm2"),
        FactorSpec(
            f"packaging_cpa[{package_class}]", 0.5, 2.0,
            FactorTarget("packaging", (package_class,), "cpa_kg_per_cm2"),
        ),
        FactorSpec(
            "traffic_bytes_per_op", 0.5, 2.0,
            FactorTarget("bandwidth", (), "traffic_bytes_per_op"),
        ),
    ]
    spec = params.integration_spec(integration)
    if spec.bonding is not BondingMethod.NONE:
        flow = AssemblyFlow.D2W if spec.is_3d else AssemblyFlow.CHIP_LAST
        specs.append(
            FactorSpec(
                f"bonding_epa[{spec.bonding.value}/{flow.value}]",
                0.5, 2.0,
                FactorTarget(
                    "bonding", (spec.bonding, flow), "epa_kwh_per_cm2"
                ),
            )
        )
        specs.append(
            FactorSpec(
                f"bond_yield[{spec.bonding.value}/{flow.value}]",
                0.95, 1.02,
                FactorTarget(
                    "bonding", (spec.bonding, flow), "bond_yield",
                    clamp_to_one=True,
                ),
            )
        )
    if spec.io_area_ratio > 0:
        specs.append(
            FactorSpec(
                f"io_area_ratio[{integration}]", 0.5, 2.0,
                FactorTarget(
                    "integration", (integration,), "io_area_ratio",
                    clamp_to_one=True,
                ),
            )
        )
    return FactorSet(name="table2", specs=tuple(specs))


def act_factor_set(nodes: "tuple[str, ...]") -> FactorSet:
    """ACT / ACT+ uncertainty: per-node EPA/GPA/MPA intensity ranges.

    ACT prices a die as ``(CI_fab·EPA + GPA + MPA)·A/Y`` with fixed
    yield, so its parametric uncertainty is exactly the per-node
    intensity table (Gupta et al. report ±30-40% spreads across fab
    surveys for all three). Fab electricity (EPA) and gas abatement
    (GPA) uncertainty come from *facility-wide* accounting, so their
    factors correlate across nodes (one correlation group each); raw
    material (MPA) spreads are per-supply-chain and stay independent.
    """
    specs = []
    for node in nodes:
        specs.append(FactorSpec(
            f"fab_energy_epa[{node}]", 0.7, 1.4,
            FactorTarget("node", (node,), "epa_kwh_per_cm2"),
            group="fab_energy",
        ))
        specs.append(FactorSpec(
            f"fab_gas_gpa[{node}]", 0.7, 1.4,
            FactorTarget("node", (node,), "gpa_kg_per_cm2"),
            group="fab_gas",
        ))
        specs.append(FactorSpec(
            f"raw_material_mpa[{node}]", 0.7, 1.4,
            FactorTarget("node", (node,), "mpa_kg_per_cm2"),
        ))
    return FactorSet(name="act", specs=tuple(specs))


def lca_factor_set() -> FactorSet:
    """LCA-report uncertainty: database CPA spread + yield-node defects.

    GaBi-style per-wafer factors are point values from proprietary fab
    surveys; published wafer LCAs at the same nodes spread roughly
    -20/+25% around them, modeled as one multiplicative ``cpa_scale``
    on the whole table (a database is internally consistent — its
    entries move together, hence a single model-scoped factor). The only
    :class:`ParameterSet` field the model reads is the 14 nm yield
    node's defect density (Table 2's 0.5-2× range).
    """
    return FactorSet(name="lca", specs=(
        FactorSpec(
            "gabi_cpa_scale", 0.8, 1.25,
            FactorTarget("model", ("lca",), "cpa_scale"),
        ),
        FactorSpec(
            f"defect_density[{GABI_FINEST_NODE}]", 0.5, 2.0,
            FactorTarget(
                "node", (GABI_FINEST_NODE,), "defect_density_per_cm2"
            ),
        ),
    ))


def first_order_factor_set() -> FactorSet:
    """First-order model uncertainty: the per-area intensity itself.

    Eeckhout's model is ``k·A + c`` with ``k`` the mid-range of published
    per-wafer LCAs — the spread of those LCAs (roughly 0.9-2.4 kg/cm²
    around the 1.5 default) *is* the model's uncertainty, plus the flat
    packaging adder's 0.5-2× range. Both are model constants, so both
    factors are model-scoped.
    """
    return FactorSet(name="first_order", specs=(
        FactorSpec(
            "silicon_kg_per_cm2", 0.6, 1.6,
            FactorTarget("model", ("first_order",), "kg_per_cm2"),
        ),
        FactorSpec(
            "packaging_kg", 0.5, 2.0,
            FactorTarget("model", ("first_order",), "packaging_kg"),
        ),
    ))
