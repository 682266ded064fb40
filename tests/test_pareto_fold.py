"""The one dominance fold against the two folds it replaced.

``oracle_merge_front`` and ``oracle_pareto_front`` are verbatim copies
of the per-candidate front merge and the O(n²) two-objective front that
:func:`repro.analysis.optimizer.pareto_fold` replaced. Random objective
columns — drawn from a small value set so exact ties are common, with
NaN and ±inf mixed in — are folded by both, chunk by chunk, and every
front must match: members, order, ``index`` values and the tie rule.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import optimizer
from repro.analysis.optimizer import (
    ParetoPoint,
    _merge_front,
    pareto_fold,
)


def oracle_merge_front(front, result, offset):
    """The per-candidate front merge the fold replaced."""
    total = result.columns["total_kg"]
    perf = result.columns["performance_tops"]
    cost = result.columns["cost_mm2"]
    finite = np.isfinite(total) & np.isfinite(perf) & np.isfinite(cost)
    candidates = np.flatnonzero(finite)
    if candidates.size == 0:
        return front
    candidates = candidates[np.lexsort((
        candidates, -perf[candidates], cost[candidates], total[candidates],
    ))]

    f_total = np.array([p.total_kg for p in front])
    f_perf = np.array([p.performance_tops for p in front])
    f_cost = np.array([p.cost_mm2 for p in front])
    points = result.grid.points
    for i in candidates:
        t, p, c = float(total[i]), float(perf[i]), float(cost[i])
        if front:
            if np.any((f_total <= t) & (f_perf >= p) & (f_cost <= c)):
                continue
            evicted = (
                (t <= f_total) & (p >= f_perf) & (c <= f_cost)
                & ((t < f_total) | (p > f_perf) | (c < f_cost))
            )
            if evicted.any():
                keep = np.flatnonzero(~evicted)
                front = [front[j] for j in keep]
                f_total = f_total[keep]
                f_perf = f_perf[keep]
                f_cost = f_cost[keep]
        grid_point = points[i]
        front.append(ParetoPoint(
            index=offset + int(i),
            label=grid_point.label,
            design=grid_point.design.name,
            integration=grid_point.design.integration,
            wafer_diameter_mm=grid_point.wafer_diameter_mm,
            fab_location=grid_point.fab_location,
            total_kg=t,
            embodied_kg=float(result.columns["embodied_kg"][i]),
            operational_kg=float(result.columns["operational_kg"][i]),
            performance_tops=p,
            cost_mm2=c,
        ))
        f_total = np.append(f_total, t)
        f_perf = np.append(f_perf, p)
        f_cost = np.append(f_cost, c)
    return front


def oracle_pareto_front(valid):
    """The O(n²) (embodied, operational) front the fold replaced."""
    front = []
    for candidate in valid:
        dominated = any(
            other.report.embodied_kg <= candidate.report.embodied_kg
            and other.report.operational_kg
            <= candidate.report.operational_kg
            and (other.report.embodied_kg < candidate.report.embodied_kg
                 or other.report.operational_kg
                 < candidate.report.operational_kg)
            for other in valid
        )
        if not dominated:
            front.append(candidate)
    front.sort(key=lambda c: c.report.embodied_kg)
    return front


#: Few distinct values, so exact ties on one, two or all objectives are
#: common; NaN and ±inf ride along.
VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, 1.5, 2.0, 3.0, math.nan, math.inf, -math.inf]
)
OBJECTIVES = st.one_of(VALUES, st.floats(-5.0, 5.0))

ROWS = st.lists(
    st.tuples(OBJECTIVES, OBJECTIVES, OBJECTIVES), min_size=0, max_size=40
)


def chunk_result(rows, start):
    """A stand-in for one evaluated :class:`~repro.vec.GridResult`."""
    total, perf, cost = np.array(rows, dtype=float).reshape(-1, 3).T
    points = [
        SimpleNamespace(
            label=f"p{start + i}",
            design=SimpleNamespace(name=f"d{start + i}", integration="m3d"),
            wafer_diameter_mm=300.0,
            fab_location="taiwan",
        )
        for i in range(len(rows))
    ]
    return SimpleNamespace(
        columns={
            "total_kg": total,
            "performance_tops": perf,
            "cost_mm2": cost,
            "embodied_kg": total * 0.25,
            "operational_kg": total * 0.75,
        },
        grid=SimpleNamespace(points=points, point=points.__getitem__),
    )


def chunked(rows, cuts):
    """Split ``rows`` at the sorted, distinct ``cuts`` → (start, rows)."""
    edges = [0] + sorted({c % (len(rows) + 1) for c in cuts}) + [len(rows)]
    return [
        (a, rows[a:b]) for a, b in zip(edges, edges[1:]) if b > a
    ]


@given(
    rows=ROWS,
    cuts=st.lists(st.integers(0, 40), max_size=5),
    block=st.integers(1, 8),
)
@settings(max_examples=300, deadline=None)
@example(rows=[(1.0, 2.0, 3.0)] * 3, cuts=[1], block=2048)
@example(
    rows=[(1.0, 2.0, 3.0), (0.5, 2.0, 3.0), (1.0, 2.0, 3.0)], cuts=[2],
    block=2048,
)
def test_merge_front_equals_the_per_candidate_merge(rows, cuts, block):
    """Also at small fold blocks, so rows cross block boundaries."""
    new, old = [], []
    for start, chunk in chunked(rows, cuts):
        with mock.patch.object(optimizer, "_FOLD_BLOCK", block):
            new = _merge_front(new, chunk_result(chunk, start), offset=start)
        old = oracle_merge_front(old, chunk_result(chunk, start), start)
        assert [repr(p) for p in new] == [repr(p) for p in old]
        assert [p.index for p in new] == [p.index for p in old]


def candidates_of(pairs):
    return [
        SimpleNamespace(
            label=f"c{i}", valid=True,
            report=SimpleNamespace(embodied_kg=e, operational_kg=o),
        )
        for i, (e, o) in enumerate(pairs)
    ]


@given(pairs=st.lists(st.tuples(OBJECTIVES, OBJECTIVES), max_size=40))
@settings(max_examples=300, deadline=None)
@example(pairs=[(1.0, 1.0), (1.0, 1.0), (2.0, 0.0)])
def test_pareto_front_equals_the_quadratic_front(pairs):
    """The fold over two objectives (a zero third column) keeps the same
    front, except the two deliberate rule changes: a candidate with a
    non-finite objective is left off, and of an exactly equal pair only
    the first is kept (the quadratic front kept both)."""
    candidates = candidates_of(pairs)
    kept = pareto_fold(
        [embodied for embodied, _ in pairs],
        [operational for _, operational in pairs],
        np.zeros(len(pairs)),
    )
    seen = set()
    expected_input = []
    for candidate, pair in zip(candidates, pairs):
        if all(math.isfinite(v) for v in pair) and pair not in seen:
            seen.add(pair)
            expected_input.append(candidate)
    assert [candidates[row] for row in kept] == oracle_pareto_front(
        expected_input
    )


def test_fold_keeps_the_first_of_an_exact_tie():
    assert pareto_fold([1.0, 1.0], [2.0, 2.0], [3.0, 3.0]) == [0]
    assert pareto_fold([2.0, 1.0], [1.0, 1.0], [0.0, 0.0]) == [1]


def test_fold_ignores_rows_with_a_non_finite_objective():
    assert pareto_fold(
        [math.nan, -math.inf, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, math.inf]
    ) == []
