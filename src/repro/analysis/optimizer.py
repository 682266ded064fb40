"""Carbon-aware configuration search and Pareto-frontier optimization.

Two generations of search share this module:

* :func:`search_configurations` — the original exhaustive walk over the
  discrete integration space (one scalar engine evaluation per
  candidate), returning the carbon-minimal configuration and the
  embodied-vs-operational front.
* :class:`ParetoSearch` — the batch-native optimizer: it enumerates (or
  deterministically samples) 10⁵–10⁶ configurations across integration ×
  division × assembly × wafer size × fab location, prices them in chunks
  through the vectorized core (:mod:`repro.vec`), and maintains the
  non-dominated front over three objectives — total lifecycle carbon
  (min), bandwidth-degraded throughput (max) and effective wafer silicon
  area per good unit (min, the cost proxy). Fronts stream incrementally
  per chunk; the final front is deterministic for a given (grid,
  max_configs, seed), which the service parity tests pin bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.integration import StackingStyle
from ..config.parameters import DEFAULT_PARAMETERS, ParameterSet
from ..core.design import ChipDesign
from ..core.operational import Workload
from ..core.report import LifecycleReport
from ..errors import DesignError, ParameterError
from ..vec.evaluate import GridResult, evaluate_grid
from ..vec.grid import DesignGrid, assembly_options

#: The deterministic seed the sampled search defaults to (the package's
#: shared draw seed; see :data:`repro.api.spec.DEFAULT_SEED`).
DEFAULT_SEED = 20240623

#: Default chunk size for streaming grid evaluation.
DEFAULT_CHUNK = 25_000

#: Objective → direction, in report order.
PARETO_OBJECTIVES = (
    ("total_kg", "min"),
    ("performance_tops", "max"),
    ("cost_mm2", "min"),
)


@dataclass(frozen=True)
class Candidate:
    """One evaluated configuration."""

    label: str
    design: ChipDesign
    report: LifecycleReport

    @property
    def valid(self) -> bool:
        return self.report.valid

    @property
    def total_kg(self) -> float:
        return self.report.total_kg


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive configuration search."""

    candidates: tuple[Candidate, ...]
    best: Candidate | None

    def valid_candidates(self) -> "list[Candidate]":
        return [c for c in self.candidates if c.valid]

    def pareto_front(self) -> "list[Candidate]":
        """Non-dominated valid candidates in (embodied, operational)."""
        valid = self.valid_candidates()
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

    def format_table(self) -> str:
        header = (
            f"{'configuration':<40} {'emb kg':>9} {'oper kg':>9} "
            f"{'total kg':>9} {'valid':>6}"
        )
        lines = [header, "-" * len(header)]
        for candidate in sorted(self.candidates, key=lambda c: c.total_kg):
            marker = " <== best" if candidate is self.best else ""
            lines.append(
                f"{candidate.label:<40.40} "
                f"{candidate.report.embodied_kg:9.2f} "
                f"{candidate.report.operational_kg:9.2f} "
                f"{candidate.total_kg:9.2f} "
                f"{'yes' if candidate.valid else 'NO':>6}{marker}"
            )
        return "\n".join(lines)


def search_configurations(
    reference: ChipDesign,
    workload: Workload | None = None,
    params: ParameterSet | None = None,
    fab_location: "str | float" = "taiwan",
    integrations: "list[str] | None" = None,
    approaches: "tuple[str, ...]" = ("homogeneous", "heterogeneous"),
    include_2d: bool = True,
    evaluator=None,
) -> SearchResult:
    """Exhaustive search over the discrete integration space.

    All candidates evaluate through one :class:`repro.engine.
    BatchEvaluator` (pass one in to share caches across searches): the
    homogeneous splits of the same reference share their wirelength
    structure, so the Davis model runs once per distinct (gate count,
    Rent exponent) pair instead of once per candidate.
    """
    from ..engine import BatchEvaluator

    params = params if params is not None else DEFAULT_PARAMETERS
    if reference.die_count != 1:
        raise ParameterError("the search needs a single-die 2D reference")
    if integrations is None:
        integrations = [
            "micro_3d", "hybrid_3d", "m3d", "mcm", "info", "emib",
            "si_interposer",
        ]
    if evaluator is None:
        evaluator = BatchEvaluator(params=params, fab_location=fab_location)

    candidates: list[Candidate] = []
    if include_2d:
        report = evaluator.report(
            reference, workload=workload, params=params,
            fab_location=fab_location,
        )
        candidates.append(Candidate("2d", reference, report))

    for name in integrations:
        spec = params.integration_spec(name)
        for approach in approaches:
            for flow in assembly_options(spec):
                try:
                    if approach == "homogeneous":
                        design = ChipDesign.homogeneous_split(
                            reference, name,
                            stacking=StackingStyle.F2F, assembly=flow,
                        )
                    else:
                        design = ChipDesign.heterogeneous_split(
                            reference, name,
                            stacking=StackingStyle.F2F, assembly=flow,
                        )
                except DesignError:
                    continue
                label = f"{name}/{approach[:5]}/{flow.value}"
                design = design.with_overrides(
                    name=f"{reference.name}_{label.replace('/', '_')}"
                )
                report = evaluator.report(
                    design, workload=workload, params=params,
                    fab_location=fab_location,
                )
                candidates.append(Candidate(label, design, report))

    valid = [c for c in candidates if c.valid]
    best = min(valid, key=lambda c: c.total_kg) if valid else None
    return SearchResult(candidates=tuple(candidates), best=best)


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


def _merge_front(
    front: "list[ParetoPoint]", result: GridResult, offset: int
) -> "list[ParetoPoint]":
    """Fold one evaluated chunk into the non-dominated front.

    Candidates are visited in a deterministic (total, cost, -perf,
    index) order; a candidate survives if no front member weakly
    dominates it (ties on all three objectives count as dominated, so
    the first-seen of an exactly-equal pair wins) and evicts the members
    it strictly dominates. O(chunk × |front|), one Python iteration and
    a few numpy calls per finite candidate: even over a one-point front
    this loop dominates an ``optimize`` study (336 of 771 ms under
    cProfile on a 20,500-point round, 2-CPU VM, Python 3.11).
    """
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
            # Weak dominance: strictly dominated, or an exact tie on all
            # three objectives (the first-seen point of an equal pair
            # already sits on the front) — discard either way.
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
        from ..vec.grid import GRID_DIE_COUNTS

        params = params if params is not None else DEFAULT_PARAMETERS
        grid = DesignGrid.from_axes(
            reference,
            params=params,
            integrations=integrations,
            die_counts=(
                tuple(die_counts) if die_counts is not None
                else GRID_DIE_COUNTS
            ),
            wafer_diameters_mm=wafer_diameters_mm,
            fab_locations=(
                tuple(fab_locations) if fab_locations is not None
                else ("taiwan",)
            ),
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
