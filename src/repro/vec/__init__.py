"""Batch-native vectorized evaluation: the design axis as a numpy axis.

The scalar pipeline walks one design at a time; this package turns the
*design grid* itself into structure-of-arrays columns. A
:class:`~repro.vec.grid.DesignGrid` spans the paper's exploration
space (integration technology × division × assembly × wafer size × fab
location) as three axes — designs, wafer diameters, fab locations — and
an ascending index into their product; it stores no per-point record
(``grid.points`` is a view that builds each
:class:`~repro.vec.grid.GridPoint` when read).
:class:`~repro.vec.plan.VectorizedBatch` partitions the designs into
shape-groups (same integration/stacking/die-count → one batch), and
:func:`~repro.vec.evaluate.evaluate_grid` prices every point through the
scalar model's own embodied equations applied to float64 columns of
wafer diameters and fab carbon intensities taken off the axes —
bit-identical to the scalar
pipeline, because those equations use only elementwise IEEE-exact
operations (see :mod:`repro.vec.evaluate`).

``evaluate_grid(grid, evaluator=...)`` shares a
:class:`~repro.engine.BatchEvaluator`'s memos; the Pareto optimizer
(:class:`repro.analysis.optimizer.ParetoSearch`) chunks 10⁵–10⁶-point
grids through it."""

from importlib import import_module

from .grid import DesignGrid, GridPoint, resolve_workload

#: numpy-backed name → its module, imported on first use so that the
#: design-space walk in :mod:`repro.vec.grid` loads without numpy.
_LAZY = {
    **dict.fromkeys(("GridResult", "evaluate_grid"), "evaluate"),
    **dict.fromkeys(("DesignBlock", "ShapeGroup", "VectorizedBatch"), "plan"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "DesignBlock",
    "DesignGrid",
    "GridPoint",
    "GridResult",
    "ShapeGroup",
    "VectorizedBatch",
    "evaluate_grid",
    "resolve_workload",
]
