"""Shape-group planning: partition a grid into vectorizable batches.

Designs that share a *structural shape* — integration technology,
stacking style, die count and assembly flow — run as one
:class:`ShapeGroup`. Within a group, each design forms a
:class:`DesignBlock`: the
structural math (Davis wirelength, BEOL layering, Eq. 14 adjacency,
yield composition) runs **once** per block through the scalar resolver, while
the axes that the resolve fingerprint provably excludes — wafer diameter
and fab carbon intensity (see :func:`repro.pipeline.fingerprint.
resolve_key` vs. ``embodied_key``) — become numpy columns over the
block's points.

Planning is pure bookkeeping (no parameter set needed) and deterministic,
and it reads the grid's design axis, never a point: the grid runs
design-major, so a design's points are one contiguous run of grid
positions, found by bisecting the grid's ascending index. Groups and
blocks appear in design order; a design the grid's index misses gets no
block.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from ..core.design import ChipDesign
from ..obs import trace as obs_trace
from .grid import DesignGrid


@dataclass(frozen=True)
class DesignBlock:
    """All points of one design (the inner SoA unit): a run of grid
    positions."""

    design: ChipDesign
    indices: range


@dataclass(frozen=True)
class ShapeGroup:
    """One structural shape: (integration, stacking, die count, assembly)."""

    key: tuple[str, str, int, str]
    blocks: tuple[DesignBlock, ...]


def shape_key(design: ChipDesign) -> tuple[str, str, int, str]:
    """The structural-shape key a design batches under."""
    return (
        design.integration,
        design.stacking.value,
        design.die_count,
        design.assembly.value,
    )


@dataclass(frozen=True)
class VectorizedBatch:
    """A planned grid: shape-groups of design blocks over point indices."""

    grid: DesignGrid
    groups: tuple[ShapeGroup, ...]

    @property
    def point_count(self) -> int:
        return len(self.grid)

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def block_count(self) -> int:
        return sum(len(group.blocks) for group in self.groups)

    @classmethod
    def plan(cls, grid: DesignGrid) -> "VectorizedBatch":
        """Partition ``grid`` into shape-groups (span: ``vec.plan``)."""
        with obs_trace.span("vec.plan", points=len(grid)) as span:
            per_design = len(grid.wafer_diameters_mm) * len(grid.fab_locations)
            by_shape: "dict[tuple, list[DesignBlock]]" = {}
            start = 0
            for d, (_, design) in enumerate(grid.designs):
                stop = bisect_left(grid.indices, (d + 1) * per_design, start)
                if stop > start:
                    by_shape.setdefault(shape_key(design), []).append(
                        DesignBlock(design=design, indices=range(start, stop))
                    )
                start = stop
            groups = tuple(
                ShapeGroup(key=key, blocks=tuple(blocks))
                for key, blocks in by_shape.items()
            )
            if span is not None:
                span.attrs["groups"] = len(groups)
                span.attrs["blocks"] = sum(map(len, by_shape.values()))
        return cls(grid=grid, groups=groups)
