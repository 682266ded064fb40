"""Design grids: the enumerable exploration space as point records.

A :class:`DesignGrid` is the declarative input of the vectorized core: a
flat tuple of :class:`GridPoint` records (design × wafer diameter × fab
location) sharing one workload. :meth:`DesignGrid.from_axes` expands the
paper's case-study axes — integration technology × division approach ×
die count × assembly flow × wafer size × fab location — from a single-die
2D reference, skipping combinations the design rules reject (e.g. a
five-die hybrid-bonded stack); :meth:`DesignGrid.from_designs` crosses
explicit designs with the physical axes instead.

The design space is enumerated in one place, :func:`split_variants`,
which the exhaustive ``carbon3d search`` walks too, and the axis
defaults are resolved in one place, :func:`grid_axes`, which the
``/optimize`` route reads together with :func:`expansion_bound`.

Wafer diameters are validated up front against the same [100, 500] mm
bound :class:`~repro.config.parameters.ParameterSet` enforces, so a grid
that plans cleanly also evaluates cleanly through the scalar comparison
path (``params.with_wafer_diameter``). Fab locations may be grid names
(``"taiwan"``) or raw carbon intensities in g CO₂/kWh — exactly the
values ``ParameterSet.grid()`` accepts — which is what makes dense
CI axes possible without touching the parameter tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..config.integration import AssemblyFlow, StackingStyle
from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..errors import DesignError, ParameterError
from ..units import WAFER_DIAMETERS_MM

#: The integration technologies :meth:`DesignGrid.from_axes` fans a
#: reference over by default (2D rides along via ``include_2d``).
GRID_INTEGRATIONS = (
    "micro_3d", "hybrid_3d", "m3d", "mcm", "info", "emib", "si_interposer",
)

#: Homogeneous die counts :meth:`DesignGrid.from_axes` tries by default.
GRID_DIE_COUNTS = (2, 3, 4)

#: Fab locations a grid prices at by default.
GRID_FAB_LOCATIONS = ("taiwan",)

#: The ``ParameterSet`` wafer-diameter bound, mirrored here so grids fail
#: at construction instead of deep inside a batch.
_WAFER_MIN_MM = 100.0
_WAFER_MAX_MM = 500.0


def resolve_workload(workload) -> "Workload | None":
    """``"av"``/``"none"``/``None``/:class:`Workload` → a workload or None."""
    if workload is None or workload == "none":
        return None
    if workload == "av":
        return Workload.autonomous_vehicle()
    if isinstance(workload, Workload):
        return workload
    raise ParameterError(
        f"workload must be \"av\", \"none\"/None or a Workload, got "
        f"{workload!r}"
    )


def assembly_options(spec) -> "list[AssemblyFlow]":
    """The assembly flows worth enumerating for one integration spec."""
    if spec.is_3d and spec.name != "m3d":
        return [AssemblyFlow.D2W, AssemblyFlow.W2W]
    if spec.is_2_5d:
        return list(spec.allowed_assembly)
    return [AssemblyFlow.NA]


def grid_axes(
    integrations=None,
    die_counts=None,
    wafer_diameters_mm=None,
    fab_locations=None,
) -> tuple:
    """``(integrations, die_counts, wafer_diameters_mm, fab_locations)``
    as tuples, each ``None`` axis taking its default."""
    return (
        tuple(GRID_INTEGRATIONS if integrations is None else integrations),
        tuple(GRID_DIE_COUNTS if die_counts is None else die_counts),
        tuple(
            WAFER_DIAMETERS_MM if wafer_diameters_mm is None
            else wafer_diameters_mm
        ),
        tuple(GRID_FAB_LOCATIONS if fab_locations is None else fab_locations),
    )


def expansion_bound(axes: tuple) -> int:
    """The most points :meth:`DesignGrid.from_axes` can expand resolved
    ``axes`` to, without expanding them: the 2D reference plus, per
    integration, at most two assembly flows × (every homogeneous die
    count + the heterogeneous split), crossed with the physical axes."""
    integrations, die_counts, wafers, locations = axes
    variants = 1 + len(integrations) * 2 * (len(die_counts) + 1)
    return variants * len(wafers) * len(locations)


def split_variants(
    reference: ChipDesign,
    integrations,
    die_counts,
    approaches,
    params: ParameterSet,
):
    """Yield ``(integration, approach, flow, n_dies, design)`` for every
    split of a single-die 2D reference the design rules accept.

    Per integration, approach and assembly flow, a homogeneous split is
    tried at each die count; any other approach is the paper's fixed
    logic+memory split, where die counts don't apply (``n_dies`` is
    None). Splits the rules reject (:class:`~repro.errors.DesignError`)
    are skipped. Designs keep the split factory's name.
    """
    for name in integrations:
        spec = params.integration_spec(name)
        for approach in approaches:
            counts = die_counts if approach == "homogeneous" else (None,)
            for flow in assembly_options(spec):
                for n_dies in counts:
                    try:
                        if n_dies is None:
                            design = ChipDesign.heterogeneous_split(
                                reference, name,
                                stacking=StackingStyle.F2F, assembly=flow,
                            )
                        else:
                            design = ChipDesign.homogeneous_split(
                                reference, name, n_dies=n_dies,
                                stacking=StackingStyle.F2F, assembly=flow,
                            )
                    except DesignError:
                        continue
                    yield name, approach, flow, n_dies, design


def variant_name(reference: ChipDesign, label: str) -> str:
    """The design name of the split a grid or search labels ``label``."""
    return f"{reference.name}_{label.replace('/', '_')}"


def _check_wafer(diameter) -> float:
    diameter = float(diameter)
    if not (_WAFER_MIN_MM <= diameter <= _WAFER_MAX_MM):
        raise ParameterError(
            f"wafer diameter must be within [{_WAFER_MIN_MM:.0f}, "
            f"{_WAFER_MAX_MM:.0f}] mm, got {diameter}"
        )
    return diameter


def _location_label(location) -> str:
    return location if isinstance(location, str) else format(location, "g")


@dataclass(frozen=True)
class GridPoint:
    """One grid cell: a design priced at one wafer size and fab location."""

    design: ChipDesign
    wafer_diameter_mm: float
    fab_location: "str | float"
    label: str


@dataclass(frozen=True)
class DesignGrid:
    """A flat, ordered design-space grid sharing one workload."""

    points: tuple[GridPoint, ...]
    workload: "Workload | None" = field(default=None)

    def __post_init__(self) -> None:
        for point in self.points:
            _check_wafer(point.wafer_diameter_mm)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def designs(self) -> "tuple[ChipDesign, ...]":
        """Distinct designs in first-appearance order."""
        seen: dict[int, ChipDesign] = {}
        for point in self.points:
            seen.setdefault(id(point.design), point.design)
        return tuple(seen.values())

    def sample(self, max_configs: int, seed: int) -> "DesignGrid":
        """A deterministic subsample of at most ``max_configs`` points.

        Sampling is order-preserving (indices are sorted after drawing),
        so the same (grid, max_configs, seed) triple yields the same
        grid everywhere — the optimizer's local/service parity depends
        on this.
        """
        if max_configs <= 0:
            raise ParameterError(
                f"max_configs must be positive, got {max_configs}"
            )
        if max_configs >= len(self.points):
            return self
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(len(self.points)), max_configs))
        return DesignGrid(
            points=tuple(self.points[i] for i in indices),
            workload=self.workload,
        )

    @classmethod
    def from_designs(
        cls,
        designs,
        wafer_diameters_mm=None,
        fab_locations=GRID_FAB_LOCATIONS,
        workload="av",
    ) -> "DesignGrid":
        """Cross explicit designs with the wafer and fab-location axes
        (``None`` takes the axis default, see :func:`grid_axes`)."""
        _, _, wafers, locations = grid_axes(
            wafer_diameters_mm=wafer_diameters_mm,
            fab_locations=fab_locations,
        )
        wafers = tuple(_check_wafer(d) for d in wafers)
        if not wafers:
            raise ParameterError("at least one wafer diameter is required")
        if not locations:
            raise ParameterError("at least one fab location is required")
        points = []
        for entry in designs:
            if isinstance(entry, tuple):
                label, design = entry
            else:
                label, design = entry.name, entry
            for wafer in wafers:
                for location in locations:
                    points.append(GridPoint(
                        design=design,
                        wafer_diameter_mm=wafer,
                        fab_location=location,
                        label=(
                            f"{label}@w{wafer:g}"
                            f"@{_location_label(location)}"
                        ),
                    ))
        return cls(
            points=tuple(points), workload=resolve_workload(workload)
        )

    @classmethod
    def from_axes(
        cls,
        reference: ChipDesign,
        *,
        params: "ParameterSet | None" = None,
        integrations=None,
        die_counts=GRID_DIE_COUNTS,
        approaches=("homogeneous", "heterogeneous"),
        wafer_diameters_mm=None,
        fab_locations=GRID_FAB_LOCATIONS,
        workload="av",
        include_2d: bool = True,
    ) -> "DesignGrid":
        """Expand the case-study axes from a single-die 2D reference.

        A ``None`` axis takes its default (see :func:`grid_axes`).
        Division variants that the design rules reject (e.g. more dies
        than the integration allows) are silently skipped — the grid
        holds only constructible designs; genuinely invalid *points*
        (a die too large for a small wafer) surface later as per-point
        errors in the evaluated :class:`~repro.vec.evaluate.GridResult`.
        """
        params = params if params is not None else DEFAULT_PARAMETERS
        if reference.die_count != 1:
            raise ParameterError(
                "a design grid needs a single-die 2D reference"
            )
        integrations, die_counts, _, _ = grid_axes(integrations, die_counts)
        designs: "list[tuple[str, ChipDesign]]" = []
        if include_2d:
            designs.append(("2d", reference))
        for name, _, flow, n_dies, design in split_variants(
            reference, integrations, die_counts, approaches, params
        ):
            division = "heter" if n_dies is None else f"homog{n_dies}"
            label = f"{name}/{division}/{flow.value}"
            designs.append((label, design.with_overrides(
                name=variant_name(reference, label)
            )))
        return cls.from_designs(
            designs,
            wafer_diameters_mm=wafer_diameters_mm,
            fab_locations=fab_locations,
            workload=workload,
        )
