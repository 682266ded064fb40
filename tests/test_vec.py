"""Vectorized evaluation core: planning, parity, isolation, Pareto search.

The contract under test is the one the optimizer and ``/optimize`` ride
on: shape-group planning partitions any grid without loss, every output
column is bit-identical to the scalar pipeline, a bad point poisons
nothing beyond itself, and the Pareto front is deterministic and
chunk-invariant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.optimizer import (
    PARETO_OBJECTIVES,
    ParetoSearch,
)
from repro.core.design import ChipDesign
from repro.engine import BatchEvaluator
from repro.errors import DesignError, ParameterError
from repro.studies.drive import drive_2d_design
from repro.vec import DesignGrid, VectorizedBatch
from repro.vec import grid as grid_module
from repro.vec.evaluate import COLUMN_NAMES, evaluate_grid
from repro.vec.plan import shape_key


def mixed_grid(
    orin_2d,
    wafers=(200.0, 300.0),
    locations=("taiwan", 30.0),
    die_counts=(2, 3),
):
    """A small grid mixing 2D, 3D stacks and 2.5D assemblies.

    Three-die variants are asked for everywhere, but the grid holds only
    the splits Table 1 allows: hybrid F2F and M3D stacks stay at 2 dies.
    """
    return DesignGrid.from_axes(
        orin_2d,
        integrations=("hybrid_3d", "mcm", "emib", "m3d"),
        die_counts=die_counts,
        wafer_diameters_mm=wafers,
        fab_locations=locations,
        workload="av",
    )


class TestDesignGrid:
    def test_from_axes_needs_single_die_reference(self, orin_2d):
        stacked = ChipDesign.homogeneous_split(orin_2d, "hybrid_3d")
        with pytest.raises(ParameterError, match="single-die 2D reference"):
            DesignGrid.from_axes(stacked)

    def test_wafer_bounds_validated(self, orin_2d):
        for bad in (50.0, 600.0, -1.0):
            with pytest.raises(ParameterError, match="wafer diameter"):
                DesignGrid.from_axes(orin_2d, wafer_diameters_mm=[bad])

    def test_empty_axes_rejected(self, orin_2d):
        with pytest.raises(ParameterError, match="wafer diameter"):
            DesignGrid.from_axes(orin_2d, wafer_diameters_mm=[])
        with pytest.raises(ParameterError, match="fab location"):
            DesignGrid.from_axes(orin_2d, fab_locations=[])

    @pytest.mark.parametrize("axis", [
        "integrations", "die_counts", "wafer_diameters_mm", "fab_locations",
    ])
    def test_none_axis_takes_its_default(self, orin_2d, axis):
        grid = DesignGrid.from_axes(orin_2d, **{axis: None})
        assert grid.points == DesignGrid.from_axes(orin_2d).points

    def test_sample_is_deterministic_and_order_preserving(self, orin_2d):
        grid = mixed_grid(orin_2d)
        a = grid.sample(10, seed=7)
        b = grid.sample(10, seed=7)
        assert [p.label for p in a.points] == [p.label for p in b.points]
        assert len(a.points) == 10
        # Order-preserving: the sampled labels appear in grid order.
        full = [p.label for p in grid.points]
        positions = [full.index(p.label) for p in a.points]
        assert positions == sorted(positions)
        # A different seed draws a different subset.
        c = grid.sample(10, seed=8)
        assert [p.label for p in c.points] != [p.label for p in a.points]

    def test_sample_larger_than_grid_is_identity(self, orin_2d):
        grid = mixed_grid(orin_2d)
        assert grid.sample(10 ** 9, seed=1) is grid


class TestShapeGroupPlanning:
    def test_partition_covers_every_point_exactly_once(self, orin_2d):
        grid = mixed_grid(orin_2d)
        batch = VectorizedBatch.plan(grid)
        seen = sorted(
            index
            for group in batch.groups
            for block in group.blocks
            for index in block.indices
        )
        assert seen == list(range(len(grid.points)))

    def test_groups_split_on_structural_shape_only(self, orin_2d):
        grid = mixed_grid(orin_2d)
        batch = VectorizedBatch.plan(grid)
        for group in batch.groups:
            for block in group.blocks:
                assert shape_key(block.design) == group.key
                # A block's points differ only along the wafer/CI axes.
                designs = {
                    id(grid.points[i].design) for i in block.indices
                }
                assert len(designs) == 1
        # Mixed integrations yield multiple groups; die-count variants
        # of one integration land in *different* groups (distinct shape).
        keys = [group.key for group in batch.groups]
        assert len(keys) == len(set(keys))
        assert {k[2] for k in keys if k[0] == "mcm"} == {2, 3}
        assert {k[2] for k in keys if k[0] == "hybrid_3d"} == {2}

    def test_block_indices_ascend(self, orin_2d):
        batch = VectorizedBatch.plan(mixed_grid(orin_2d))
        for group in batch.groups:
            for block in group.blocks:
                assert list(block.indices) == sorted(block.indices)

    def test_empty_grid_plans_and_evaluates(self):
        grid = DesignGrid(
            designs=(), wafer_diameters_mm=(300.0,), fab_locations=("taiwan",)
        )
        batch = VectorizedBatch.plan(grid)
        assert batch.group_count == 0
        result = evaluate_grid(grid)
        assert result.point_count == 0
        assert result.error_count == 0
        for name in COLUMN_NAMES:
            assert result.column(name).shape == (0,)


def assert_matches_scalar(grid: DesignGrid, result) -> int:
    """Every point of ``result`` equals the scalar engine's report bit for
    bit, or carries its error message; returns the clean point count."""
    scalar = BatchEvaluator()
    wafer_params = {}
    clean = 0
    for index, point in enumerate(grid.points):
        params = wafer_params.setdefault(
            point.wafer_diameter_mm,
            scalar.params.with_wafer_diameter(point.wafer_diameter_mm),
        )
        try:
            report = scalar.report(
                point.design, workload=grid.workload, params=params,
                fab_location=point.fab_location,
            )
        except (DesignError, ParameterError) as error:
            # Structural failures carry the scalar path's message.
            assert result.errors[index] == str(error), point.label
            continue
        clean += 1
        assert result.errors[index] is None, point.label
        expected = {
            "total_kg": report.total_kg,
            "embodied_kg": report.embodied_kg,
            "operational_kg": report.operational_kg,
            "die_kg": report.embodied.die_kg,
            "bonding_kg": report.embodied.bonding_kg,
            "packaging_kg": report.embodied.packaging_kg,
            "interposer_kg": report.embodied.interposer_kg,
            "performance_tops": point.design.throughput_tops
            * (1.0 - report.bandwidth.degradation),
        }
        for name, value in expected.items():
            got = float(result.column(name)[index])
            assert got == value, (
                f"{name} mismatch at {point.label}: {got!r} != {value!r}"
            )
        # cost_mm2 is vec-only (the exploration proxy); pin its shape.
        assert float(result.column("cost_mm2")[index]) > 0.0
    return clean


class TestScalarParity:
    def test_every_report_column_bit_identical(self, orin_2d):
        grid = mixed_grid(orin_2d)
        result = evaluate_grid(grid, evaluator=BatchEvaluator())
        assert assert_matches_scalar(grid, result) > 0

    def test_sampled_design_space_bit_identical(self):
        """500 points drawn from the full ORIN design space — wafers
        100–500 mm, named grids and raw intensities — match the scalar
        engine bit for bit, and every error message for message."""
        grid = DesignGrid.from_axes(
            drive_2d_design("orin"),
            wafer_diameters_mm=[100.0 + 25.0 * i for i in range(17)],
            fab_locations=["taiwan", "iceland", "usa", "india",
                           30.0, 480.0, 700.0],
            workload="av",
        ).sample(500, seed=20240623)
        assert len(grid.points) == 500
        assert assert_matches_scalar(grid, evaluate_grid(grid)) > 0

    def test_invalid_wafer_points_stay_local(self):
        # A 4000 mm² die does not fit a 100 mm wafer: those points must
        # error with the scalar DPW message while the same design's
        # 300 mm points — the same block — evaluate normally, as must
        # the unrelated small design sharing the batch.
        big = ChipDesign.planar_2d("big", "14nm", area_mm2=4000.0)
        small_die = ChipDesign.planar_2d("small", "14nm", area_mm2=100.0)
        grid = DesignGrid.from_designs(
            [big, small_die],
            wafer_diameters_mm=(100.0, 300.0),
            fab_locations=("taiwan",),
            workload="none",
        )
        result = evaluate_grid(grid)
        totals = result.column("total_kg")
        for index, point in enumerate(grid.points):
            if point.design is big and point.wafer_diameter_mm == 100.0:
                assert "does not fit a 100 mm wafer" in result.errors[index]
                assert np.isnan(totals[index])
            else:
                assert result.errors[index] is None
                assert np.isfinite(totals[index])

    def test_unknown_location_points_stay_local(self, orin_2d):
        grid = mixed_grid(
            orin_2d, locations=("taiwan", "atlantis"), die_counts=(2,)
        )
        result = evaluate_grid(grid)
        bad = [
            i for i, p in enumerate(grid.points)
            if p.fab_location == "atlantis"
        ]
        good = [
            i for i, p in enumerate(grid.points)
            if p.fab_location == "taiwan"
        ]
        assert all(result.errors[i] is not None for i in bad)
        assert all(result.errors[i] is None for i in good)
        assert np.all(np.isfinite(result.column("total_kg")[good]))


class TestParetoSearch:
    def search(self, orin_2d, chunk=16):
        return ParetoSearch.from_axes(
            orin_2d,
            integrations=("hybrid_3d", "mcm", "emib"),
            die_counts=(2, 3),
            wafer_diameters_mm=(200.0, 300.0, 450.0),
            fab_locations=("taiwan", "iceland", 700.0),
            chunk=chunk,
        )

    def test_run_is_deterministic(self, orin_2d):
        front_a = self.search(orin_2d).run(seed=3).to_dict()
        front_b = self.search(orin_2d).run(seed=3).to_dict()
        assert front_a == front_b

    def test_front_is_mutually_non_dominated(self, orin_2d):
        front = self.search(orin_2d).run()
        assert front.points, "expected a non-empty front"
        for a in front.points:
            for b in front.points:
                if a is b:
                    continue
                dominates = (
                    b.total_kg <= a.total_kg
                    and b.performance_tops >= a.performance_tops
                    and b.cost_mm2 <= a.cost_mm2
                )
                assert not dominates, f"{b.label} dominates {a.label}"

    def test_front_points_are_chunk_invariant(self, orin_2d):
        fine = self.search(orin_2d, chunk=7).run()
        coarse = self.search(orin_2d, chunk=10_000).run()
        assert [p.to_dict() for p in fine.points] == [
            p.to_dict() for p in coarse.points
        ]
        assert fine.evaluated == coarse.evaluated
        assert fine.errors == coarse.errors
        assert fine.chunks != coarse.chunks

    def test_max_configs_bounds_evaluation(self, orin_2d):
        front = self.search(orin_2d).run(max_configs=20, seed=5)
        assert front.evaluated == 20

    def test_stream_snapshots_accumulate_to_run(self, orin_2d):
        snapshots = list(self.search(orin_2d, chunk=16).stream(seed=3))
        final = self.search(orin_2d, chunk=16).run(seed=3)
        assert [s["chunk"] for s in snapshots] == list(
            range(1, final.chunks + 1)
        )
        assert snapshots[-1]["evaluated"] == final.evaluated
        assert snapshots[-1]["front"] == [
            p.to_dict() for p in final.points
        ]
        # Evaluated counts increase monotonically chunk over chunk.
        counts = [s["evaluated"] for s in snapshots]
        assert counts == sorted(counts)

    def test_objectives_are_the_documented_triple(self):
        assert PARETO_OBJECTIVES == (
            ("total_kg", "min"),
            ("performance_tops", "max"),
            ("cost_mm2", "min"),
        )

    def test_chunk_must_be_positive(self, orin_2d):
        with pytest.raises(ParameterError, match="chunk"):
            ParetoSearch.from_axes(orin_2d, chunk=0)


class TestNoPointRecords:
    """The optimize path reads the grid's axes: it builds a
    :class:`~repro.vec.grid.GridPoint` for a point that joins the front
    and for no other point."""

    def search(self, orin_2d):
        # 3 wafers × 3 locations: a design's block is 9 points, and every
        # chunk of 4 cuts one.
        return ParetoSearch.from_axes(
            orin_2d,
            integrations=("hybrid_3d", "mcm", "emib"),
            die_counts=(2, 3),
            wafer_diameters_mm=(200.0, 300.0, 450.0),
            fab_locations=("taiwan", "iceland", 700.0),
            chunk=4,
        )

    def test_sampled_grid_evaluates_without_point_records(
        self, orin_2d, monkeypatch
    ):
        expected = evaluate_grid(mixed_grid(orin_2d).sample(10, seed=7))

        def forbidden(**fields):
            raise AssertionError(f"GridPoint built for {fields['label']}")

        monkeypatch.setattr(grid_module, "GridPoint", forbidden)
        grid = mixed_grid(orin_2d).sample(10, seed=7)
        result = evaluate_grid(grid)
        assert len(grid) == 10 and result.point_count == 10
        assert result.errors == expected.errors
        for name in COLUMN_NAMES:
            assert np.array_equal(
                result.column(name), expected.column(name), equal_nan=True
            )

    @pytest.mark.parametrize("max_configs", [None, 40])
    def test_search_builds_a_point_per_front_arrival(
        self, orin_2d, monkeypatch, max_configs
    ):
        snapshots = list(self.search(orin_2d).stream(max_configs=max_configs))
        # A chunk's arrivals are its points on the chunk's front.
        arrivals = seen = 0
        for snapshot in snapshots:
            arrivals += sum(p["index"] >= seen for p in snapshot["front"])
            seen = snapshot["evaluated"]
        assert len(snapshots) > 2 and arrivals < seen

        built = []
        real = grid_module.GridPoint

        def stand_in(**fields):
            built.append(fields["label"])
            if len(built) > arrivals:
                raise AssertionError(f"GridPoint built for {fields['label']}")
            return real(**fields)

        monkeypatch.setattr(grid_module, "GridPoint", stand_in)
        streamed = list(self.search(orin_2d).stream(max_configs=max_configs))
        assert streamed == snapshots and len(built) == arrivals
        built.clear()
        front = self.search(orin_2d).run(max_configs=max_configs)
        assert front.to_dict()["front"] == snapshots[-1]["front"]
        assert len(built) == arrivals
