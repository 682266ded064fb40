"""Batch-native vectorized evaluation: the design axis as a numpy axis.

The scalar pipeline walks one design at a time; this package turns the
*design grid* itself into structure-of-arrays columns. A
:class:`~repro.vec.grid.DesignGrid` enumerates the paper's exploration
space (integration technology × division × assembly × wafer size × fab
location), :class:`~repro.vec.plan.VectorizedBatch` partitions it into
shape-groups (same integration/stacking/die-count → one batch), and
:func:`~repro.vec.evaluate.evaluate_grid` prices every point through the
columnar twins in :mod:`repro.vec.columns` — bit-identical to the scalar
pipeline, because every column replicates the scalar expression tree with
elementwise IEEE-exact numpy ops (see the parity notes in
:mod:`repro.vec.columns`).

``BatchEvaluator.evaluate_grid()`` is the engine-side entry point; the
Pareto optimizer (:class:`repro.analysis.optimizer.ParetoSearch`) chunks
10⁵–10⁶-point grids through it.
"""

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
