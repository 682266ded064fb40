"""Shape-group planning: partition a grid into vectorizable batches.

Points that share a *structural shape* — integration technology, stacking
style, die count and assembly flow — run as one :class:`ShapeGroup`.
Within a group, each distinct design forms a :class:`DesignBlock`: the
structural math (Davis wirelength, BEOL layering, Eq. 14 adjacency,
yield composition) runs **once** per block through the scalar resolver, while
the axes that the resolve fingerprint provably excludes — wafer diameter
and fab carbon intensity (see :func:`repro.pipeline.fingerprint.
resolve_key` vs. ``embodied_key``) — become numpy columns over the
block's points.

Planning is pure bookkeeping (no parameter set needed) and deterministic:
groups and blocks appear in first-appearance order, indices ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.design import ChipDesign
from ..obs import trace as obs_trace
from .grid import DesignGrid


@dataclass(frozen=True)
class DesignBlock:
    """All points of one distinct design (the inner SoA unit)."""

    design: ChipDesign
    indices: tuple[int, ...]

    @property
    def point_count(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ShapeGroup:
    """One structural shape: (integration, stacking, die count, assembly)."""

    key: tuple[str, str, int, str]
    blocks: tuple[DesignBlock, ...]

    @property
    def point_count(self) -> int:
        return sum(block.point_count for block in self.blocks)


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
        return len(self.grid.points)

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def block_count(self) -> int:
        return sum(len(group.blocks) for group in self.groups)

    @classmethod
    def plan(cls, grid: DesignGrid) -> "VectorizedBatch":
        """Partition ``grid`` into shape-groups (span: ``vec.plan``)."""
        with obs_trace.span("vec.plan", points=len(grid.points)) as span:
            group_order: list[tuple[str, str, int, str]] = []
            # shape key → (design id → (design, [indices]))
            by_shape: dict[tuple, dict[int, tuple]] = {}
            for index, point in enumerate(grid.points):
                key = shape_key(point.design)
                blocks = by_shape.get(key)
                if blocks is None:
                    blocks = by_shape[key] = {}
                    group_order.append(key)
                entry = blocks.get(id(point.design))
                if entry is None:
                    entry = blocks[id(point.design)] = (point.design, [])
                entry[1].append(index)
            groups = tuple(
                ShapeGroup(
                    key=key,
                    blocks=tuple(
                        DesignBlock(design=design, indices=tuple(indices))
                        for design, indices in by_shape[key].values()
                    ),
                )
                for key in group_order
            )
            if span is not None:
                span.attrs["groups"] = len(groups)
                span.attrs["blocks"] = sum(len(by_shape[k]) for k in by_shape)
        return cls(grid=grid, groups=groups)
