"""Structural fingerprints: exact memo keys for the evaluation pipeline.

Every configuration record the model reads (:class:`ProcessNode`,
:class:`IntegrationSpec`, bonding/packaging records, substrate/M3D/
bandwidth parameter blocks, :class:`ChipDesign` itself) is a frozen
dataclass and therefore hashable *by value*. A fingerprint is simply the
tuple of records a pipeline stage actually consumes — two evaluation
points share a cache entry exactly when the stage cannot distinguish
them, regardless of which ``ParameterSet`` instances carried the records.

The slices are deliberately minimal and are kept in sync with the reads
of the corresponding stage:

* :func:`resolve_key` — everything :func:`repro.core.resolve.resolve_design`
  reads: the design, its integration spec, the node record of every die,
  the substrate/M3D blocks, the bonding record(s) the yield model uses,
  and the substrate silicon node (2.5D);
* :func:`embodied_key` — adds the Eq. 4–6 inputs: wafer diameter, the
  BEOL-awareness flag, the packaging record and the fab carbon intensity;
* :func:`bandwidth_key` — adds the Sec. 3.4 constraint block;
* :func:`operational_key` — built from the *values* Eq. 16 reads (stretch,
  degradation, use-phase CI, traffic constants when I/O power is counted),
  so draws that only perturb embodied-side parameters share one
  operational evaluation.
"""

from __future__ import annotations

from ..config.integration import BondingMethod
from ..config.parameters import ParameterSet
from ..core.bandwidth import BandwidthResult
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..errors import CarbonModelError


class CachedKey:
    """A fingerprint tuple with its hash computed at most once.

    Fingerprints nest frozen dataclasses whose hashes Python recomputes
    on every dict operation; a study touches each key several times per
    point (resolve/embodied/bandwidth/operational layers), so caching the
    hash keeps the memo overhead well under the work it saves. The hash
    is taken on first use: a key that is only rendered into a store key
    (:func:`repro.service.store.canonical_text`) is never hashed.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple) -> None:
        self.value = value
        self._hash = None

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self.value)
        return value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CachedKey) and self.value == other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachedKey({self.value!r})"


def bonding_records(design: ChipDesign, spec, params: ParameterSet) -> tuple:
    """The bonding-table record(s) resolution and Eq. 11 read, if any."""
    if spec.is_2d or spec.name == "m3d":
        return ()
    if spec.is_3d:
        return (params.bonding.get((spec.bonding, design.assembly)),)
    # 2.5D: every die attaches to the substrate with C4 bumps.
    return (params.bonding.get((BondingMethod.C4, design.assembly)),)


def silicon_substrate_node(params: ParameterSet):
    """The node record backing silicon interposers / EMIB bridges."""
    try:
        return params.node(params.substrate.silicon_node)
    except CarbonModelError:
        return None


def resolve_key(
    design: ChipDesign, params: ParameterSet, static: CachedKey | None = None
) -> CachedKey:
    """Fingerprint of everything ``resolve_design`` can observe.

    The slice is family-specific — resolution of a 2D or 3D stack never
    reads the substrate parameters, and only monolithic 3D reads the M3D
    block — so the key stays as small (and as shareable) as the actual
    dependency set.

    ``static`` optionally injects a pre-built ``CachedKey((design, spec))``
    — the evaluator interns one per (design, spec) pair so batch loops
    don't re-hash the design on every draw. The key shape is always
    ``((design, spec), nodes, *family_extras)``; read the spec back via
    ``key.value[0].value[1]``.
    """
    spec = params.integration_spec(design.integration)
    if (
        static is None
        or static.value[0] is not design
        or static.value[1] is not spec
    ):
        static = CachedKey((design, spec))
    nodes = tuple([params.node(die.node) for die in design.dies])
    if spec.is_2_5d:
        extra = (
            bonding_records(design, spec, params),
            params.substrate,
            silicon_substrate_node(params),
        )
    elif spec.name == "m3d":
        extra = (params.m3d,)
    elif spec.is_3d:
        extra = (bonding_records(design, spec, params),)
    else:
        extra = ()
    return CachedKey((static, nodes) + extra)


def embodied_key(
    rkey: tuple, design: ChipDesign, params: ParameterSet, ci_fab: float
) -> tuple:
    """Fingerprint of the Eq. 3 inputs on top of a resolution."""
    return (
        rkey,
        params.wafer_diameter_mm,
        params.beol_aware,
        params.packaging.get(design.package.package_class),
        ci_fab,
    )


def bandwidth_key(rkey: tuple, params: ParameterSet) -> tuple:
    """Fingerprint of the Sec. 3.4 constraint inputs."""
    return (rkey, params.bandwidth)


def operational_prefix(design: ChipDesign, spec) -> CachedKey:
    """The draw-stable part of an operational key (design, spec, node names)."""
    return CachedKey(
        (design, spec, tuple(die.node for die in design.dies))
    )


def operational_key(
    rkey: tuple,
    prefix: CachedKey,
    spec,
    params: ParameterSet,
    workload: Workload,
    use_ci: float,
    bandwidth: BandwidthResult,
    efficiency_plugin,
) -> tuple:
    """Fingerprint of the Eq. 16–17 inputs.

    Without a plugin, Eq. 16 reads only: the design (shares, efficiency
    overrides, throughput), the node *names* (surveyed-efficiency lookup),
    the spec's interconnect constants, the bandwidth outcome, the workload
    and the use-phase grid — all covered by ``prefix`` plus the scalars
    below — so the key deliberately excludes the full node records and
    parameter blocks. A plugin may inspect anything on the resolved
    design, so its presence widens the key to the resolve fingerprint.
    """
    io_constants = None
    if spec.io_power_counted:
        io_constants = (
            params.bandwidth.traffic_bytes_per_op,
            params.bandwidth.io_traffic_fraction,
        )
    key = (
        prefix,
        workload,
        use_ci,
        bandwidth.runtime_stretch,
        bandwidth.degradation,
        io_constants,
    )
    if efficiency_plugin is not None:
        return key + (rkey, id(efficiency_plugin))
    return key
