"""Seeded inputs and the scalar correctness oracle.

Everything the program receives is generated here from the workload
seed: random 2D references (``ChipDesign.planar_2d`` at 7/10/14 nm with
random gate counts) split by ``ChipDesign.homogeneous_split`` into 2–4
dies across every integration kind of Table 1. The same seed always
gives the same designs, points, batches and study rounds.

The oracle is the program's scalar pipeline,
``CarbonModel(design, params, location).evaluate(workload)``. A served
or locally computed result counts as correct only when it equals the
scalar ``to_dict()`` exactly; :func:`digest` gives the canonical JSON
digest used for the byte-level comparison.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.config.parameters import DEFAULT_PARAMETERS
from repro.core.design import ChipDesign
from repro.core.model import CarbonModel
from repro.errors import DesignError
from repro.io.designs import design_from_dict, design_to_dict
from repro.service.schema import workload_from_value
from repro.studies.sweep import DEFAULT_INTEGRATIONS
from repro.vec.grid import DesignGrid

PARAMS = DEFAULT_PARAMETERS
NODES = ("7nm", "10nm", "14nm")
#: Table 1: 2D plus the seven 3D/2.5D integration kinds.
INTEGRATIONS = DEFAULT_INTEGRATIONS
LOCATIONS = (
    "world", "taiwan", "south_korea", "usa", "usa_az",
    "ireland", "israel", "china", "japan", "germany",
)
WORKLOADS = ("av", "none")
THROUGHPUT_TOPS = 254.0

#: Study round shapes (the same on every workload that runs studies).
OPTIMIZE_WAFERS = tuple(100.0 + 8.0 * i for i in range(50))
OPTIMIZE_LOCATIONS = LOCATIONS
MC_SAMPLES = 500
SWEEP_LOCATIONS = LOCATIONS[:5]
FRONT_SAMPLE = 3


def digest(value) -> str:
    """Canonical JSON digest (sorted keys, no whitespace)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def wire_design(design: ChipDesign) -> "tuple[dict, ChipDesign]":
    """The design's wire dict and the design the server parses from it."""
    data = design_to_dict(design)
    return data, design_from_dict(json.loads(json.dumps(data)))


def reference(rng: random.Random, name: str, node: "str | None" = None
              ) -> ChipDesign:
    """A single-die 2D reference with a random gate count."""
    return ChipDesign.planar_2d(
        name,
        node if node is not None else rng.choice(NODES),
        gate_count=float(rng.randrange(3_000, 25_000)) * 1e6,
        throughput_tops=THROUGHPUT_TOPS,
    )


def die_counts(integration: str) -> "tuple[int, ...]":
    """The 2–4 die counts Table 1 allows for a split of this kind."""
    ref = ChipDesign.planar_2d("probe", "7nm", gate_count=1e9)
    counts = []
    for n_dies in (2, 3, 4):
        try:
            ChipDesign.homogeneous_split(ref, integration, n_dies).validate(
                PARAMS
            )
        except DesignError:
            continue
        counts.append(n_dies)
    return tuple(counts)


DIE_COUNTS = {name: die_counts(name) for name in INTEGRATIONS if name != "2d"}


def random_design(rng: random.Random, name: str,
                  integration: "str | None" = None,
                  node: "str | None" = None,
                  variant: "int | None" = None) -> ChipDesign:
    """A design of one Table 1 integration kind, split into 2–4 dies.

    ``variant`` picks the die count in turn instead of at random.
    """
    ref = reference(rng, name, node)
    if integration is None:
        integration = rng.choice(INTEGRATIONS)
    if integration == "2d":
        return ref
    counts = DIE_COUNTS[integration]
    n_dies = (
        rng.choice(counts) if variant is None else counts[variant % len(counts)]
    )
    return ChipDesign.homogeneous_split(ref, integration, n_dies=n_dies)


class Point:
    """One evaluate point: its wire dict plus what the oracle needs."""

    __slots__ = ("wire", "design", "location", "workload", "_expected")

    def __init__(self, design: ChipDesign, location: str, workload: str):
        data, parsed = wire_design(design)
        self.wire = {"design": data, "fab_location": location,
                     "workload": workload}
        self.design = parsed
        self.location = location
        self.workload = workload
        self._expected = None

    def expected(self) -> dict:
        """The scalar report dict (computed once, on first use)."""
        if self._expected is None:
            report = CarbonModel(self.design, PARAMS, self.location).evaluate(
                workload_from_value(self.workload)
            )
            self._expected = json.loads(json.dumps(report.to_dict()))
        return self._expected


def random_point(rng: random.Random, name: str) -> Point:
    return Point(
        random_design(rng, name), rng.choice(LOCATIONS), rng.choice(WORKLOADS)
    )


def warm_pool(seed: int, size: int) -> "list[Point]":
    """A pool with a fixed mix: integration kind, node, die count and
    workload cycle through every value; the seed draws gate counts and
    fab locations. Every seed then asks the same work of the server."""
    rng = random.Random(f"warm-pool-{seed}")
    pool = []
    for i in range(size):
        row = i // len(INTEGRATIONS)
        design = random_design(
            rng, f"warm{seed}_{i}", INTEGRATIONS[i % len(INTEGRATIONS)],
            NODES[row % len(NODES)], variant=row,
        )
        pool.append(Point(
            design, rng.choice(LOCATIONS), WORKLOADS[row % len(WORKLOADS)]
        ))
    return pool


class ColdStream:
    """One client's deterministic sequence of ``/batch`` requests.

    Each of a batch's points is new with probability ``1 - repeat -
    duplicate``; otherwise it repeats a point of one of this client's
    earlier batches (a store read, since each client is its own tenant
    and runs a closed loop) or a point earlier in the same batch
    (in-request dedup). :meth:`batch` returns the point ids with the
    ``cache`` tag each entry must carry.
    """

    def __init__(self, seed: int, client: int, size: int = 32,
                 repeat: float = 0.15, duplicate: float = 0.10) -> None:
        self.rng = random.Random(f"cold-{seed}-{client}")
        self.prefix = f"cold{seed}_{client}"
        self.size = size
        self.repeat = repeat
        self.duplicate = duplicate
        self.points: "list[Point]" = []

    def batch(self) -> "tuple[list[dict], list[tuple[int, str]]]":
        rng = self.rng
        history = len(self.points)
        ids: "list[tuple[int, str]]" = []
        for _ in range(self.size):
            draw = rng.random()
            if draw < self.repeat and history:
                ids.append((rng.randrange(history), "store"))
            elif draw < self.repeat + self.duplicate and ids:
                ids.append(ids[rng.randrange(len(ids))])
            else:
                index = len(self.points)
                self.points.append(
                    random_point(rng, f"{self.prefix}_{index}")
                )
                ids.append((index, "computed"))
        return [self.points[i].wire for i, _ in ids], ids


# -- study rounds ------------------------------------------------------------


class StudyRound:
    """Three studies on one fresh reference: optimize, Monte-Carlo, sweep."""

    def __init__(self, seed: int, index: int) -> None:
        rng = random.Random(f"round-{seed}-{index}")
        # The node cycles, so every seed sees the same mix of rounds.
        self.reference = reference(
            rng, f"explore{seed}_{index}", NODES[index % len(NODES)]
        )
        self.wire, _ = wire_design(self.reference)
        self.mc_design = ChipDesign.homogeneous_split(
            self.reference, "hybrid_3d"
        )
        self.mc_wire, _ = wire_design(self.mc_design)
        self.mc_seed = rng.randrange(2**31)
        self.front_rng = random.Random(rng.randrange(2**31))

    def grid_size(self) -> int:
        return len(self._designs()) * len(OPTIMIZE_WAFERS) * len(
            OPTIMIZE_LOCATIONS
        )

    def _designs(self) -> list:
        """The grid's designs, in grid order (one wafer, one location)."""
        grid = DesignGrid.from_axes(
            self.reference, params=PARAMS,
            wafer_diameters_mm=OPTIMIZE_WAFERS[:1],
            fab_locations=OPTIMIZE_LOCATIONS[:1], workload="av",
        )
        return [point.design for point in grid.points]

    def check_optimize(self, payload: dict) -> "list[str]":
        """Front size, point count and a seeded sample of front points."""
        problems = []
        if payload.get("evaluated") != self.grid_size():
            problems.append(
                f"optimize evaluated {payload.get('evaluated')} points, "
                f"expected {self.grid_size()}"
            )
        front = payload.get("front") or []
        if not front:
            return problems + ["optimize returned an empty front"]
        designs = self._designs()
        per_design = len(OPTIMIZE_WAFERS) * len(OPTIMIZE_LOCATIONS)
        workload = workload_from_value("av")
        sample = self.front_rng.sample(front, min(FRONT_SAMPLE, len(front)))
        for point in sample:
            index = point["index"]
            design = designs[index // per_design]
            wafer = OPTIMIZE_WAFERS[(index // len(OPTIMIZE_LOCATIONS))
                                    % len(OPTIMIZE_WAFERS)]
            location = OPTIMIZE_LOCATIONS[index % len(OPTIMIZE_LOCATIONS)]
            if (point["wafer_diameter_mm"], point["fab_location"]) != (
                wafer, location
            ):
                problems.append(f"front point {index} has the wrong axes")
                continue
            report = CarbonModel(
                design, PARAMS.with_wafer_diameter(wafer), location
            ).evaluate(workload)
            operational = report.operational
            expected = (
                report.total_kg,
                report.embodied.total_kg,
                0.0 if operational is None else operational.total_kg,
            )
            got = (point["total_kg"], point["embodied_kg"],
                   point["operational_kg"])
            if got != expected:
                problems.append(
                    f"front point {index}: {got} != scalar {expected}"
                )
        return problems

    def check_monte_carlo(self, payload: dict) -> "list[str]":
        expected = CarbonModel(self.mc_design, PARAMS, "taiwan").evaluate(
            workload_from_value("av")
        ).total_kg
        problems = []
        if payload.get("samples") != MC_SAMPLES:
            problems.append(f"monte_carlo drew {payload.get('samples')}")
        if payload.get("base_kg") != expected:
            problems.append(
                f"monte_carlo base_kg {payload.get('base_kg')} != scalar "
                f"{expected}"
            )
        return problems

    def sweep_expected(self) -> "dict[str, dict]":
        """label → scalar report dict for every sweep entry."""
        workload = workload_from_value("av")
        expected = {}
        for name in INTEGRATIONS:
            design = (
                self.reference if name == "2d"
                else ChipDesign.homogeneous_split(self.reference, name)
            )
            for location in SWEEP_LOCATIONS:
                report = CarbonModel(design, PARAMS, location).evaluate(
                    workload
                )
                expected[f"{name}@{location}"] = json.loads(
                    json.dumps(report.to_dict())
                )
        return expected

    def check_sweep(self, entries: "list[tuple[str, dict]]") -> "list[str]":
        """``entries`` are (label, report dict) pairs in response order."""
        expected = self.sweep_expected()
        if [label for label, _ in entries] != list(expected):
            return ["sweep labels differ from the integration × location grid"]
        return [
            f"sweep entry {label} differs from the scalar report"
            for label, report in entries
            if report != expected[label]
            or digest(report) != digest(expected[label])
        ]
