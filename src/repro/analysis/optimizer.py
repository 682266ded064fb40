"""Carbon-aware configuration search and Pareto-frontier optimization.

Both searches walk one design space, and the Pareto search keeps one
dominance fold:

* The space is :func:`repro.vec.grid.split_variants` — integration ×
  division approach × assembly flow × die count, split from a
  single-die 2D reference.
* The fold is :func:`pareto_fold`, a sorted skyline sweep over
  objective columns in which the first-seen of an exactly equal pair
  wins.

:func:`search_designs` (``carbon3d search``) lists the two-die and
heterogeneous splits, which the CLI prices at one fab location as one
batch study and ranks by total carbon.
:class:`ParetoSearch` (``optimize``, ``POST /optimize``) expands the
same space across wafer sizes and fab locations into a
:class:`~repro.vec.DesignGrid` of 10⁵–10⁶ points, prices it in chunks
through the vectorized core (:mod:`repro.vec`), and keeps the front
over three objectives — total lifecycle carbon (min),
bandwidth-degraded throughput (max) and effective wafer silicon area
per good unit (min, the cost proxy). Fronts stream incrementally per
chunk; the final front is deterministic for a given (grid,
max_configs, seed), which the service parity tests pin bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign
from ..errors import ParameterError
from ..seeds import DEFAULT_SEED
from ..vec.evaluate import GridResult, evaluate_grid
from ..vec.grid import (
    GRID_INTEGRATIONS,
    DesignGrid,
    split_variants,
    variant_name,
)

#: Default chunk size for streaming grid evaluation.
DEFAULT_CHUNK = 25_000

#: Rows :func:`pareto_fold` converts to Python floats at a time.
_FOLD_BLOCK = 2048

#: Objective → direction, in report order.
PARETO_OBJECTIVES = (
    ("total_kg", "min"),
    ("performance_tops", "max"),
    ("cost_mm2", "min"),
)


def search_designs(reference: ChipDesign) -> "list[tuple[str, ChipDesign]]":
    """The ``carbon3d search`` space as ``(label, design)`` pairs.

    The 2D reference comes first (label ``2d``), then every two-die
    homogeneous and logic+memory heterogeneous split, labelled
    ``integration/approach/flow`` and named by :func:`variant_name`.
    The CLI prices them as one batch of evaluate points.
    """
    designs = [("2d", reference)]
    for name, approach, flow, _, design in split_variants(
        reference, GRID_INTEGRATIONS, (2,),
        ("homogeneous", "heterogeneous"), DEFAULT_PARAMETERS,
    ):
        label = f"{name}/{approach[:5]}/{flow.value}"
        designs.append((label, design.with_overrides(
            name=variant_name(reference, label)
        )))
    return designs


# -- batch-native Pareto search ------------------------------------------------


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated configuration on the three-objective front."""

    index: int
    label: str
    design: str
    integration: str
    wafer_diameter_mm: float
    fab_location: "str | float"
    total_kg: float
    embodied_kg: float
    operational_kg: float
    performance_tops: float
    cost_mm2: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "design": self.design,
            "integration": self.integration,
            "wafer_diameter_mm": self.wafer_diameter_mm,
            "fab_location": self.fab_location,
            "total_kg": self.total_kg,
            "embodied_kg": self.embodied_kg,
            "operational_kg": self.operational_kg,
            "performance_tops": self.performance_tops,
            "cost_mm2": self.cost_mm2,
        }


def front_record(
    front: "list[dict]", evaluated: int, errors: int, chunks: int
) -> dict:
    """The JSON record of a search outcome: the objectives, the counts
    and the sorted front of point records.

    :meth:`ParetoFront.to_dict` renders a finished search with it, and a
    streamed search's last snapshot renders the same way.
    """
    return {
        "objectives": {name: goal for name, goal in PARETO_OBJECTIVES},
        "evaluated": evaluated,
        "errors": errors,
        "chunks": chunks,
        "front_size": len(front),
        "front": front,
    }


@dataclass(frozen=True)
class ParetoFront:
    """Final (or per-chunk snapshot) outcome of a :class:`ParetoSearch`."""

    points: tuple[ParetoPoint, ...]
    evaluated: int
    errors: int
    chunks: int

    def to_dict(self) -> dict:
        return front_record(
            [point.to_dict() for point in self.points],
            self.evaluated, self.errors, self.chunks,
        )


def _front_sort_key(point: ParetoPoint):
    return (
        point.total_kg, point.cost_mm2, -point.performance_tops, point.label
    )


def pareto_fold(total, cost, perf) -> "list[int]":
    """Rows of the non-dominated set of objective columns, in fold order.

    Minimises ``total`` and ``cost`` and maximises ``perf``; a row with
    a non-finite objective is never kept. Rows are visited in (total,
    cost, -perf, row) order. In that order no later row can strictly
    dominate an earlier one, so a row is kept exactly when no kept row
    weakly dominates it, and the earlier row of an exactly equal pair
    wins. Every kept row has a total no greater than the row visited, so
    the check is a 2-D query against the kept rows' (cost, perf)
    staircase: one bisection per row.
    """
    total = np.asarray(total, dtype=float)
    cost = np.asarray(cost, dtype=float)
    perf = np.asarray(perf, dtype=float)
    rows = np.flatnonzero(
        np.isfinite(total) & np.isfinite(cost) & np.isfinite(perf)
    )
    order = rows[np.lexsort((rows, -perf[rows], cost[rows], total[rows]))]
    # The staircase: kept (cost, perf) pairs no other kept pair weakly
    # dominates, costs and perfs both strictly increasing.
    costs: "list[float]" = []
    perfs: "list[float]" = []
    kept = []
    # Rows become Python floats a block at a time, which bounds the
    # fold's memory at a few blocks' worth of objects.
    for first in range(0, order.size, _FOLD_BLOCK):
        block = order[first:first + _FOLD_BLOCK]
        for row, c, p in zip(
            block.tolist(), cost[block].tolist(), perf[block].tolist()
        ):
            above = bisect_right(costs, c)
            if above and perfs[above - 1] >= p:
                continue
            start = end = bisect_left(costs, c, 0, above)
            while end < len(perfs) and perfs[end] <= p:
                end += 1
            costs[start:end] = [c]
            perfs[start:end] = [p]
            kept.append(row)
    return kept


def _merge_front(
    front: "list[ParetoPoint]", result: GridResult, offset: int
) -> "list[ParetoPoint]":
    """Fold one evaluated chunk into the non-dominated front.

    The front and the chunk go through one :func:`pareto_fold`, front
    first and the chunk in index order, so the first-seen of an
    exactly-equal pair wins. Surviving front members keep their order;
    the chunk's new members follow in fold order.
    """
    total = result.columns["total_kg"]
    perf = result.columns["performance_tops"]
    cost = result.columns["cost_mm2"]
    n = len(front)
    kept = pareto_fold(
        np.concatenate(([p.total_kg for p in front], total)),
        np.concatenate(([p.cost_mm2 for p in front], cost)),
        np.concatenate(([p.performance_tops for p in front], perf)),
    )
    merged = [front[k] for k in sorted(k for k in kept if k < n)]
    points = result.grid.points
    for i in (k - n for k in kept if k >= n):
        grid_point = points[i]
        merged.append(ParetoPoint(
            index=offset + i,
            label=grid_point.label,
            design=grid_point.design.name,
            integration=grid_point.design.integration,
            wafer_diameter_mm=grid_point.wafer_diameter_mm,
            fab_location=grid_point.fab_location,
            total_kg=float(total[i]),
            embodied_kg=float(result.columns["embodied_kg"][i]),
            operational_kg=float(result.columns["operational_kg"][i]),
            performance_tops=float(perf[i]),
            cost_mm2=float(cost[i]),
        ))
    return merged


class ParetoSearch:
    """Chunked Pareto-frontier search over a :class:`~repro.vec.DesignGrid`.

    The search evaluates the grid through the vectorized core in chunks
    of ``chunk`` points (sharing one :class:`~repro.engine.
    BatchEvaluator`'s caches across chunks) and folds each chunk into
    the running non-dominated front. :meth:`run` returns the final
    :class:`ParetoFront`; :meth:`stream` additionally yields a JSON-ready
    snapshot per chunk — the service's NDJSON ``POST /optimize`` stream.
    """

    def __init__(
        self,
        grid: DesignGrid,
        *,
        params: "ParameterSet | None" = None,
        chunk: int = DEFAULT_CHUNK,
        evaluator=None,
    ) -> None:
        if chunk < 1:
            raise ParameterError(f"chunk must be >= 1, got {chunk}")
        self.grid = grid
        self.params = params if params is not None else DEFAULT_PARAMETERS
        self.chunk = chunk
        self._evaluator = evaluator

    @classmethod
    def from_axes(
        cls,
        reference: ChipDesign,
        *,
        params: "ParameterSet | None" = None,
        workload="av",
        integrations=None,
        die_counts=None,
        wafer_diameters_mm=None,
        fab_locations=None,
        chunk: int = DEFAULT_CHUNK,
        evaluator=None,
    ) -> "ParetoSearch":
        """Build the search grid from the case-study axes (see
        :meth:`repro.vec.DesignGrid.from_axes`)."""
        params = params if params is not None else DEFAULT_PARAMETERS
        grid = DesignGrid.from_axes(
            reference,
            params=params,
            integrations=integrations,
            die_counts=die_counts,
            wafer_diameters_mm=wafer_diameters_mm,
            fab_locations=fab_locations,
            workload=workload,
        )
        return cls(grid, params=params, chunk=chunk, evaluator=evaluator)

    @property
    def evaluator(self):
        if self._evaluator is None:
            from ..engine import BatchEvaluator

            self._evaluator = BatchEvaluator(params=self.params)
        return self._evaluator

    def _chunks(self, max_configs: "int | None", seed: int):
        grid = self.grid
        if max_configs is not None:
            grid = grid.sample(max_configs, seed)
        front: "list[ParetoPoint]" = []
        evaluated = errors = chunks = 0
        for start in range(0, len(grid.points), self.chunk):
            sub = DesignGrid(
                points=grid.points[start:start + self.chunk],
                workload=grid.workload,
            )
            result = evaluate_grid(
                sub, evaluator=self.evaluator, params=self.params
            )
            front = _merge_front(front, result, offset=start)
            evaluated += result.point_count
            errors += result.error_count
            chunks += 1
            yield front, evaluated, errors, chunks

    def run(
        self,
        max_configs: "int | None" = None,
        seed: int = DEFAULT_SEED,
    ) -> ParetoFront:
        """Evaluate the whole grid → the final deterministic front."""
        front: "list[ParetoPoint]" = []
        evaluated = errors = chunks = 0
        for front, evaluated, errors, chunks in self._chunks(
            max_configs, seed
        ):
            pass
        return ParetoFront(
            points=tuple(sorted(front, key=_front_sort_key)),
            evaluated=evaluated,
            errors=errors,
            chunks=chunks,
        )

    def stream(
        self,
        max_configs: "int | None" = None,
        seed: int = DEFAULT_SEED,
    ):
        """Yield one JSON-ready snapshot per chunk; the last carries the
        full sorted front under ``"front"``."""
        for front, evaluated, errors, chunks in self._chunks(
            max_configs, seed
        ):
            snapshot = sorted(front, key=_front_sort_key)
            yield {
                "chunk": chunks,
                "evaluated": evaluated,
                "errors": errors,
                "front_size": len(snapshot),
                "front": [point.to_dict() for point in snapshot],
            }
