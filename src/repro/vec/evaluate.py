"""Grid evaluation: the embodied equations over wafer and fab-CI columns.

:func:`evaluate_grid` is the vectorized fast path: plan the grid into
shape-groups, resolve each design block **once** through the engine's
memoized scalar resolver (Davis wirelength, adjacency, yields — the
transcendental-heavy work), then price the block's points as numpy
columns over the wafer-diameter and fab-CI axes. The columns come from
the scalar model's own equation bodies
(:func:`repro.core.embodied.embodied_totals`) applied to float64 arrays:
they use only elementwise ``+ − × ÷`` and ``math.sqrt`` of scalars, so
every element is the float the scalar path computes. Operational carbon,
bandwidth degradation and packaging are block constants (they do not
depend on either axis), computed by the very same scalar code the
per-point path runs — so every output column is bit-identical to a
scalar sweep over ``params.with_wafer_diameter(...)`` ×
``fab_location``.

Failures stay local: an unknown fab location, an unresolvable design or
a die that does not fit a wafer marks *its* points with the scalar
path's error message and NaN columns; the rest of the batch is
untouched. A point's error is the one the scalar path raises first: fab
location, then resolution, then each die in order (Eq. 5 is checked per
point), then the block-wide bonding, packaging, substrate, bandwidth and
operational stages.

Observability: planning runs under a ``vec.plan`` span, evaluation under
``vec.eval`` (point/group/error counts as attributes), and every
evaluated point increments the ``carbon3d_vec_points_total`` counter on
the engine's metrics registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config.parameters import ParameterSet
from ..core.die_carbon import carbon_sum
from ..core.dpw import dpw_error, dpw_formula
from ..core.embodied import embodied_totals
from ..errors import DesignError, ParameterError
from ..obs import trace as obs_trace
from .grid import DesignGrid
from .plan import VectorizedBatch

#: Output columns of a :class:`GridResult`, in report order.
COLUMN_NAMES = (
    "total_kg",
    "embodied_kg",
    "operational_kg",
    "die_kg",
    "bonding_kg",
    "packaging_kg",
    "interposer_kg",
    "performance_tops",
    "cost_mm2",
)


@dataclass
class GridResult:
    """Columnar result of one grid evaluation."""

    grid: DesignGrid
    columns: "dict[str, np.ndarray]"
    errors: "tuple[str | None, ...]"
    group_count: int
    block_count: int

    @property
    def point_count(self) -> int:
        return len(self.grid)

    @property
    def error_count(self) -> int:
        return sum(1 for e in self.errors if e is not None)

    @property
    def valid_mask(self) -> np.ndarray:
        """True where the point evaluated (its columns are real numbers)."""
        return np.fromiter(
            (e is None for e in self.errors),
            dtype=bool,
            count=len(self.errors),
        )

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ParameterError(
                f"unknown grid column {name!r}; have "
                f"{', '.join(sorted(self.columns))}"
            )
        return self.columns[name]


def _marking_dpw(errors: "list[str | None]", indices):
    """Eq. 5 over a block's wafer column. A die that does not fit marks
    its point with the scalar path's message, unless the point already
    holds an earlier error."""

    def dpw(wafer_mm: np.ndarray, die_area_mm2: float) -> np.ndarray:
        count = dpw_formula(wafer_mm, die_area_mm2)
        for pos in np.flatnonzero(count < 1.0):
            i = indices[pos]
            if errors[i] is None:
                errors[i] = str(
                    dpw_error(wafer_mm[pos], die_area_mm2, count[pos])
                )
        return count

    return dpw


def evaluate_grid(
    grid: DesignGrid,
    evaluator=None,
    params: "ParameterSet | None" = None,
) -> GridResult:
    """Price every grid point through the vectorized core.

    ``evaluator`` is a :class:`~repro.engine.BatchEvaluator` whose memo
    caches (resolve, bandwidth, operational) are shared with — and
    warmed for — the scalar path; one is built on demand. ``params``
    defaults to the evaluator's parameter set. The grid's wafer-diameter
    axis replaces ``params.wafer_diameter_mm``; every other parameter is
    taken from ``params`` as-is.
    """
    if evaluator is None:
        from ..engine import BatchEvaluator

        evaluator = BatchEvaluator(params=params)
    params = params if params is not None else evaluator.params

    batch = VectorizedBatch.plan(grid)
    n = len(grid)

    with obs_trace.span(
        "vec.eval", points=n, groups=batch.group_count
    ) as span:
        columns = {name: np.full(n, np.nan) for name in COLUMN_NAMES}
        errors: "list[str | None]" = [None] * n

        # Each position's wafer and location axis entries, off its flat
        # index; the fab CI once per location through the engine's
        # interned lookup (identical float to the scalar path's).
        locations = grid.fab_locations
        rest = np.array(grid.indices, dtype=np.intp) % (
            len(grid.wafer_diameters_mm) * len(locations)
        )
        location_of = rest % len(locations)
        cis = []
        for k, location in enumerate(locations):
            try:
                cis.append(evaluator._ci(params, location))
            except (ParameterError, DesignError) as err:
                cis.append(math.nan)
                message = str(err)
                for i in np.flatnonzero(location_of == k).tolist():
                    errors[i] = message
        wafer_col = np.array(grid.wafer_diameters_mm)[rest // len(locations)]
        ci_col = np.array(cis)[location_of]

        for group in batch.groups:
            for block in group.blocks:
                design = block.design
                at = slice(block.indices.start, block.indices.stop)
                try:
                    # The engine's stages over a block of this one design.
                    stages = evaluator._one(
                        design, params, workload=grid.workload
                    )
                    evaluator._resolved(stages)
                    resolved = stages.only(stages.resolved)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        (embodied_kg, die_kg, bonding_kg, packaging_kg,
                         interposer_kg, die_terms) = embodied_totals(
                            resolved, params, ci_col[at], wafer_col[at],
                            _marking_dpw(errors, block.indices),
                        )
                    evaluator._bandwidth(stages)
                    bandwidth = stages.only(stages.bandwidth)
                    operational_kg = 0.0
                    if grid.workload is not None:
                        evaluator._operational(stages)
                        operational_kg = stages.only(
                            stages.operational
                        ).total_kg
                except (DesignError, ParameterError) as err:
                    message = str(err)
                    for i in block.indices:
                        if errors[i] is None:
                            errors[i] = message
                    continue

                performance = (
                    math.nan
                    if design.throughput_tops is None
                    else design.throughput_tops * (1.0 - bandwidth.degradation)
                )

                columns["total_kg"][at] = embodied_kg + operational_kg
                columns["embodied_kg"][at] = embodied_kg
                columns["operational_kg"][at] = operational_kg
                columns["die_kg"][at] = die_kg
                columns["bonding_kg"][at] = bonding_kg
                columns["packaging_kg"][at] = packaging_kg
                columns["interposer_kg"][at] = interposer_kg
                columns["performance_tops"][at] = performance
                # The exploration cost proxy: effective wafer silicon area
                # charged per good unit, Σ (A_wafer/DPW)/Y_eff over the
                # dies (the area Eq. 4 multiplies by the wafer carbon).
                columns["cost_mm2"][at] = carbon_sum(
                    eff_area / eff_yield
                    for _, _, eff_area, eff_yield, _ in die_terms
                )

        # Error points keep NaN columns even where partial values landed.
        bad = np.fromiter(
            (e is not None for e in errors), dtype=bool, count=n
        )
        if bad.any():
            for array in columns.values():
                array[bad] = np.nan

        error_count = int(bad.sum())
        if span is not None:
            span.attrs["errors"] = error_count
        if evaluator.metrics is not None:
            evaluator.metrics.counter(
                "carbon3d_vec_points_total",
                "Grid points evaluated through the vectorized core",
            ).inc(n)

    return GridResult(
        grid=grid,
        columns=columns,
        errors=tuple(errors),
        group_count=batch.group_count,
        block_count=batch.block_count,
    )
