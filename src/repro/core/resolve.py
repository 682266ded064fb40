"""Design resolution: from the user description to computable quantities.

:func:`resolve_design` expands a :class:`~repro.core.design.ChipDesign`
into a :class:`ResolvedDesign` carrying, for every die: the node record,
the Eq. 7 area breakdown, the Eq. 10 BEOL estimate, and the raw Eq. 15
yield — plus assembly-level results: the Table 3 effective yields, the
2.5D floorplan with its Eq. 14 adjacency lengths, the substrate area, and
(for M3D) the merged sequential die. Every downstream carbon calculator
consumes this one structure, so the expensive wirelength math runs once.

Batch studies pass a :class:`ResolveCache`: the structural parts of a
resolution (area breakdown, BEOL estimate, floorplan, validation) depend
only on a small slice of the node record, so perturbing e.g. the defect
density or fab energy between Monte-Carlo draws re-prices yields without
re-running the wirelength pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.integration import (
    BondingMethod,
    IntegrationSpec,
    SubstrateKind,
)
from ..caching import EvictionPolicy, LRUCache
from ..config.parameters import ParameterSet
from ..config.technology import ProcessNode
from ..errors import DesignError
from ..floorplan import Floorplan, place_dies, total_adjacent_length_mm
from .area import AreaBreakdown, resolve_area
from .beol import BeolEstimate, estimate_beol_layers
from .design import ChipDesign, Die
from .yield_model import (
    StackYields,
    die_yield,
    three_d_stack_yields,
    two_five_d_yields,
)


@dataclass(frozen=True)
class ResolvedDie:
    """One die with every derived quantity the carbon model needs."""

    die: Die
    node: ProcessNode
    area: AreaBreakdown
    beol: BeolEstimate
    raw_yield: float

    @property
    def name(self) -> str:
        return self.die.name

    @property
    def area_mm2(self) -> float:
        return self.area.total_mm2

    @property
    def edge_mm(self) -> float:
        """Edge length of the (square-modeled) die, for Eq. 17–18."""
        return self.area_mm2**0.5


@dataclass(frozen=True)
class M3DStack:
    """The merged sequential die of a monolithic-3D design."""

    footprint_mm2: float
    tier_layers: tuple[float, ...]
    tier_nodes: tuple[ProcessNode, ...]
    raw_yield: float


@dataclass(frozen=True)
class SubstrateGeometry:
    """Resolved 2.5D substrate: kind, area, raw yield."""

    kind: SubstrateKind
    area_mm2: float
    raw_yield: float
    adjacent_length_mm: float


@dataclass(frozen=True)
class ResolvedDesign:
    """Everything derived from a design under one parameter set."""

    design: ChipDesign
    spec: IntegrationSpec
    dies: tuple[ResolvedDie, ...]
    stack_yields: StackYields
    floorplan: Floorplan | None = None
    substrate: SubstrateGeometry | None = None
    m3d_stack: M3DStack | None = None

    @property
    def total_die_area_mm2(self) -> float:
        return sum(d.area_mm2 for d in self.dies)

    @property
    def max_die_area_mm2(self) -> float:
        return max(d.area_mm2 for d in self.dies)

    @property
    def is_m3d(self) -> bool:
        return self.m3d_stack is not None


def structure_node_key(node: ProcessNode) -> tuple:
    """The node fields the area/BEOL estimation reads — nothing else.

    Perturbing any *other* field (defect density, EPA/GPA/MPA, alpha, BEOL
    carbon split) cannot change the Eq. 7–10 structure of a die, which is
    what makes the :class:`ResolveCache` effective across Monte-Carlo
    draws and sensitivity sweeps.
    """
    return (
        node.feature_nm,
        node.beta,
        node.sram_density_factor,
        node.rent_exponent,
        node.fanout,
        node.wiring_efficiency,
        node.max_beol_layers,
        node.tsv_diameter_um,
        node.miv_diameter_um,
    )


class ResolveCache:
    """Memo store for the structural (parameter-stable) parts of resolution.

    Two layers, both keyed by value (every record involved is a frozen
    dataclass and therefore hashable):

    * ``die_structure`` — ``(die, spec, stacking, is_top, node-structure)``
      → ``(AreaBreakdown, BeolEstimate)``; the Davis wirelength math runs
      once per distinct key across a whole study;
    * ``floorplans`` — ``(areas, gap, names)`` → :class:`Floorplan`.

    Each layer (and the ``die_fast`` identity row) is a bounded
    :class:`repro.caching.LRUCache` sharing one
    :class:`repro.caching.EvictionPolicy`: studies whose every point
    carries a distinct key (e.g. Monte-Carlo draws perturbing a spec
    field) recycle the least-recently-used entries instead of growing
    without limit — and, unlike a stop-inserting bound, recent keys keep
    hitting however long the evaluator lives. Validation is remembered
    for the last ``(design, spec)`` pair only, by identity.

    Yields are *not* cached here: they are cheap and depend on the very
    fields (defect density, bond yield) studies most often perturb.
    """

    def __init__(
        self, limit: int = 4096, policy: "EvictionPolicy | None" = None
    ) -> None:
        #: The shared eviction policy (``limit`` is the compact spelling).
        self.policy = policy if policy is not None else EvictionPolicy(limit)
        self.die_structure = LRUCache(self.policy)
        self.floorplans = LRUCache(self.policy)
        self.hits = 0
        self.misses = 0
        #: Last (design, spec) validated — batch loops hammer one design
        #: with thousands of parameter draws, so an identity check beats
        #: re-hashing the design every call.
        self.last_validation: "tuple | None" = None
        #: id(die) → (die, spec, stacking, is_top, node key, area, beol):
        #: the identity-checked fast row in front of ``die_structure``
        #: (entries pin their die/spec, so ids cannot be recycled while
        #: present).
        self.die_fast = LRUCache(self.policy)

    @property
    def limit(self) -> int:
        return self.policy.max_entries

    def clear(self) -> None:
        self.die_structure.clear()
        self.floorplans.clear()
        self.hits = 0
        self.misses = 0
        self.last_validation = None
        self.die_fast.clear()


def _resolve_die(
    die: Die,
    params: ParameterSet,
    spec: IntegrationSpec,
    design: ChipDesign,
    is_top_die: bool,
    cache: "ResolveCache | None" = None,
) -> ResolvedDie:
    node = params.node(die.node)
    structure = None
    skey = None
    nkey = None
    if cache is not None:
        nkey = structure_node_key(node)
        fast = cache.die_fast.get(id(die))
        if (
            fast is not None
            and fast[0] is die
            and fast[1] is spec
            and fast[2] is design.stacking
            and fast[3] == is_top_die
            and fast[4] == nkey
        ):
            structure = (fast[5], fast[6])
            cache.hits += 1
        else:
            skey = (die, spec, design.stacking, is_top_die, nkey)
            structure = cache.die_structure.get(skey)
            if structure is not None:
                cache.hits += 1
    if structure is None:
        area = resolve_area(die, node, spec, design.stacking, is_top_die)
        beol = estimate_beol_layers(
            gate_count=area.gate_count,
            die_area_mm2=area.total_mm2,
            node=node,
            layers_saved=spec.beol_layers_saved,
            override=die.beol_layers,
        )
        if cache is not None:
            cache.die_structure[skey] = (area, beol)
            cache.misses += 1
    else:
        area, beol = structure
    if cache is not None and skey is not None:
        cache.die_fast[id(die)] = (
            die, spec, design.stacking, is_top_die, nkey, area, beol
        )
    if die.yield_override is not None:
        raw = die.yield_override
    else:
        raw = die_yield(
            area.total_mm2, node.defect_density_per_cm2, node.alpha
        )
    return ResolvedDie(die=die, node=node, area=area, beol=beol, raw_yield=raw)


def _resolve_m3d(
    dies: tuple[ResolvedDie, ...], params: ParameterSet
) -> M3DStack:
    footprint = max(d.area_mm2 for d in dies)
    worst_d0 = max(d.node.defect_density_per_cm2 for d in dies)
    alpha = dies[0].node.alpha
    raw = die_yield(
        footprint, worst_d0 * params.m3d.defect_density_factor, alpha
    )
    return M3DStack(
        footprint_mm2=footprint,
        tier_layers=tuple(d.beol.layers for d in dies),
        tier_nodes=tuple(d.node for d in dies),
        raw_yield=raw,
    )


def _resolve_substrate(
    resolved_dies: tuple[ResolvedDie, ...],
    floorplan: Floorplan,
    spec: IntegrationSpec,
    params: ParameterSet,
) -> SubstrateGeometry | None:
    kind = spec.substrate
    sub = params.substrate
    adjacent = total_adjacent_length_mm(floorplan)
    if kind is SubstrateKind.NONE or kind is SubstrateKind.ORGANIC:
        # MCM's organic substrate is part of the package (Sec. 3.2.3); its
        # attach yield still matters, so report geometry-free yield only.
        if kind is SubstrateKind.ORGANIC:
            return SubstrateGeometry(
                kind=kind,
                area_mm2=0.0,
                raw_yield=sub.organic_yield,
                adjacent_length_mm=adjacent,
            )
        return None
    total_die_area = sum(d.area_mm2 for d in resolved_dies)
    if kind is SubstrateKind.SILICON_INTERPOSER:
        area = sub.si_interposer_scale * total_die_area          # Eq. 13
        node = params.node(sub.silicon_node)
        raw = die_yield(area, node.defect_density_per_cm2, node.alpha)
    elif kind is SubstrateKind.EMIB_BRIDGE:
        area = sub.emib_scale * sub.die_gap_mm * adjacent        # Eq. 14
        node = params.node(sub.silicon_node)
        raw = die_yield(area, node.defect_density_per_cm2, node.alpha)
    elif kind is SubstrateKind.RDL:
        area = sub.rdl_scale * sub.die_gap_mm * adjacent         # Eq. 14
        raw = sub.rdl_yield
    else:  # pragma: no cover - enum is exhaustive
        raise DesignError(f"unhandled substrate kind {kind}")
    if area <= 0:
        raise DesignError(
            "2.5D substrate area resolved to zero — floorplan has no "
            "adjacent dies"
        )
    return SubstrateGeometry(
        kind=kind, area_mm2=area, raw_yield=raw, adjacent_length_mm=adjacent
    )


def resolve_design(
    design: ChipDesign,
    params: ParameterSet,
    cache: "ResolveCache | None" = None,
) -> ResolvedDesign:
    """Expand a design into all derived quantities (validates first).

    ``cache`` (optional) memoizes the structural sub-results — see
    :class:`ResolveCache`. Results are identical with or without one.
    """
    if cache is None:
        spec = design.validate(params)
    else:
        # Validation reads only the design structure, the integration spec
        # and the *existence* of the die nodes — the latter is re-proved by
        # the node lookups below on every call, so (design, spec) suffices.
        spec = params.integration_spec(design.integration)
        last = cache.last_validation
        if last is None or last[0] is not design or last[1] is not spec:
            design.validate(params)
            cache.last_validation = (design, spec)
    n = design.die_count
    resolved = tuple([
        _resolve_die(
            die, params, spec, design, is_top_die=(i == n - 1), cache=cache
        )
        for i, die in enumerate(design.dies)
    ])

    if spec.is_2d:
        yields = StackYields(
            per_die=(resolved[0].raw_yield,), per_bond=()
        )
        return ResolvedDesign(design, spec, resolved, yields)

    if spec.name == "m3d":
        stack = _resolve_m3d(resolved, params)
        yields = StackYields(per_die=(stack.raw_yield,), per_bond=())
        return ResolvedDesign(design, spec, resolved, yields, m3d_stack=stack)

    if spec.is_3d:
        bond = params.bonding.get((spec.bonding, design.assembly))
        yields = three_d_stack_yields(
            [d.raw_yield for d in resolved], bond.bond_yield, design.assembly
        )
        return ResolvedDesign(design, spec, resolved, yields)

    # 2.5D: floorplan, substrate, Table 3 bottom half.
    areas = [d.area_mm2 for d in resolved]
    names = [d.name for d in resolved]
    floorplan = None
    fkey = None
    if cache is not None:
        fkey = (tuple(areas), params.substrate.die_gap_mm, tuple(names))
        floorplan = cache.floorplans.get(fkey)
    if floorplan is None:
        floorplan = place_dies(
            areas, die_gap_mm=params.substrate.die_gap_mm, names=names
        )
        if cache is not None:
            cache.floorplans[fkey] = floorplan
    substrate = _resolve_substrate(resolved, floorplan, spec, params)
    substrate_yield = (
        substrate.raw_yield if substrate is not None
        else params.substrate.organic_yield
    )
    bond = params.bonding.get((BondingMethod.C4, design.assembly))
    yields = two_five_d_yields(
        [d.raw_yield for d in resolved],
        substrate_yield,
        bond.bond_yield,
        design.assembly,
    )
    return ResolvedDesign(
        design, spec, resolved, yields,
        floorplan=floorplan, substrate=substrate,
    )
