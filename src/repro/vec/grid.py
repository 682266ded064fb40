"""Design grids: the exploration space as three axes and an index.

A :class:`DesignGrid` is the declarative input of the vectorized core:
the product designs × wafer diameters × fab locations sharing one
workload, held as its axes plus the ascending flat indices into that
product the grid covers. Flat index ``(d · W + w) · L + l`` is design
``d`` at wafer ``w`` and location ``l`` of ``W`` wafers and ``L``
locations, so the points run design-major. A full grid covers a
``range``; :meth:`DesignGrid.sample` and the optimizer's chunks cover a
subset. No per-point record is stored: :meth:`DesignGrid.point` builds
one :class:`GridPoint` on demand, and :attr:`DesignGrid.points` is a
view that builds each as it is read.

:meth:`DesignGrid.from_axes` expands the
paper's case-study axes — integration technology × division approach ×
die count × assembly flow × wafer size × fab location — from a single-die
2D reference; a split past its integration's die limit (a three-die
monolithic 3D stack, say) is left out of the grid.
:meth:`DesignGrid.from_designs` crosses explicit designs with the
physical axes instead.

The design space is enumerated in one place, :func:`split_variants`:
``carbon3d search`` walks it too, and the one-axis sweeps (``/sweep``,
:mod:`repro.studies.sweep`) take their splits from it through
:func:`default_splits`. Both refuse a reference that is not a single
die given by its gate count with one
:class:`~repro.errors.ReferenceDesignError`. The axis
defaults are resolved in one place, :func:`grid_axes`, which the
``/optimize`` route reads together with :func:`expansion_bound`.

Wafer diameters are validated once per axis value against the same
[100, 500] mm bound :class:`~repro.config.parameters.ParameterSet`
enforces, so a grid
that plans cleanly also evaluates cleanly through the scalar comparison
path (``params.with_wafer_diameter``). Fab locations may be grid names
(``"taiwan"``) or raw carbon intensities in g CO₂/kWh — exactly the
values ``ParameterSet.grid()`` accepts — which is what makes dense
CI axes possible without touching the parameter tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..config.integration import (
    TABLE1_INTEGRATIONS,
    AssemblyFlow,
    StackingStyle,
)
from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..errors import DesignError, ParameterError, ReferenceDesignError
from ..units import WAFER_DIAMETERS_MM

#: The integration technologies :meth:`DesignGrid.from_axes` fans a
#: reference over by default (2D rides along via ``include_2d``).
GRID_INTEGRATIONS = tuple(
    name for name in TABLE1_INTEGRATIONS if name != "2d"
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
    split the factories build from a single-die 2D reference.

    Per integration, approach and assembly flow, a homogeneous split is
    tried at each die count; any other approach is the paper's fixed
    logic+memory split, where die counts don't apply (``n_dies`` is
    None). Splits a factory refuses or :meth:`ChipDesign.validate`
    rejects (:class:`~repro.errors.DesignError`: a ``"2d"`` integration,
    or a split past its integration's Table 1 die limit such as a
    hybrid-bonded F2F or m3d stack of three or four dies) are skipped.
    Designs keep the split factory's name.
    """
    _check_reference(reference)
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
                        design.validate(params)
                    except DesignError:
                        continue
                    yield name, approach, flow, n_dies, design


def _check_reference(reference: ChipDesign) -> None:
    """Refuse a reference the split factories cannot split: every walk
    of the design space starts from one die given by its gate count."""
    if reference.die_count != 1:
        raise ReferenceDesignError(
            f"design must be a single-die 2D reference to split, "
            f"{reference.name!r} has {reference.die_count} dies"
        )
    if reference.dies[0].gate_count is None:
        raise ReferenceDesignError(
            f"design must be a gate-count-specified 2D reference to split, "
            f"{reference.name!r} gives its die by area"
        )


def default_splits(
    reference: ChipDesign, integrations, die_counts, params: ParameterSet
):
    """Yield ``(integration, n_dies, design)`` for the one-axis sweeps.

    A 2D integration yields the reference itself (``n_dies`` 1). Any
    other yields the homogeneous splits :func:`split_variants` makes at
    ``die_counts`` in the integration's first assembly flow, which are
    the designs :meth:`ChipDesign.homogeneous_split` builds with its
    default flow; an integration left with none is an error.
    """
    _check_reference(reference)
    for name in integrations:
        spec = params.integration_spec(name)
        if spec.is_2d:
            yield name, 1, reference
            continue
        first = assembly_options(spec)[0]
        splits = [
            (n_dies, design)
            for _, _, flow, n_dies, design in split_variants(
                reference, (name,), die_counts, ("homogeneous",), params
            )
            if flow is first
        ]
        if not splits:
            raise DesignError(
                f"the design rules allow no {name} split of {reference.name!r}"
            )
        for n_dies, design in splits:
            yield name, n_dies, design


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


class _Points:
    """A grid's points as a read-only sequence, each built when read."""

    def __init__(self, grid: "DesignGrid") -> None:
        self._grid = grid

    def __len__(self) -> int:
        return len(self._grid)

    def __getitem__(self, i: int) -> GridPoint:
        return self._grid.point(i)

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other)


@dataclass(frozen=True)
class DesignGrid:
    """``designs`` × ``wafer_diameters_mm`` × ``fab_locations`` under one
    workload, covering the ascending flat ``indices`` of that product
    (all of it when ``indices`` is ``None``)."""

    designs: "tuple[tuple[str, ChipDesign], ...]"
    wafer_diameters_mm: "tuple[float, ...]"
    fab_locations: tuple
    workload: "Workload | None" = None
    indices: "range | tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        wafers = tuple(_check_wafer(d) for d in self.wafer_diameters_mm)
        if not wafers:
            raise ParameterError("at least one wafer diameter is required")
        if not self.fab_locations:
            raise ParameterError("at least one fab location is required")
        object.__setattr__(self, "wafer_diameters_mm", wafers)
        object.__setattr__(self, "workload", resolve_workload(self.workload))
        if self.indices is None:
            object.__setattr__(self, "indices", range(
                len(self.designs) * len(wafers) * len(self.fab_locations)
            ))

    def __len__(self) -> int:
        return len(self.indices)

    def point(self, i: int) -> GridPoint:
        """The grid's ``i``-th point, built on demand."""
        wafers, locations = self.wafer_diameters_mm, self.fab_locations
        d, rest = divmod(self.indices[i], len(wafers) * len(locations))
        label, design = self.designs[d]
        wafer = wafers[rest // len(locations)]
        location = locations[rest % len(locations)]
        return GridPoint(
            design=design,
            wafer_diameter_mm=wafer,
            fab_location=location,
            label=f"{label}@w{wafer:g}@{_location_label(location)}",
        )

    @property
    def points(self) -> _Points:
        """Every point, as a view that builds each :class:`GridPoint`
        when it is read."""
        return _Points(self)

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
        if max_configs >= len(self):
            return self
        rng = random.Random(seed)
        drawn = sorted(rng.sample(range(len(self)), max_configs))
        return replace(self, indices=tuple(self.indices[i] for i in drawn))

    @classmethod
    def from_designs(
        cls,
        designs,
        wafer_diameters_mm=None,
        fab_locations=GRID_FAB_LOCATIONS,
        workload="av",
    ) -> "DesignGrid":
        """Cross explicit designs (or ``(label, design)`` pairs) with the
        wafer and fab-location axes (``None`` takes the axis default, see
        :func:`grid_axes`)."""
        _, _, wafers, locations = grid_axes(
            wafer_diameters_mm=wafer_diameters_mm,
            fab_locations=fab_locations,
        )
        return cls(
            designs=tuple(
                entry if isinstance(entry, tuple) else (entry.name, entry)
                for entry in designs
            ),
            wafer_diameters_mm=wafers,
            fab_locations=locations,
            workload=workload,
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
