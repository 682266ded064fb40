"""Floorplanner tests: geometry, placement, adjacency (Eq. 14 inputs)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.floorplan import (
    Rect,
    adjacent_pairs,
    place_dies,
    square_for_area,
    total_adjacent_length_mm,
)


class TestRect:
    def test_rejects_degenerate(self):
        with pytest.raises(ParameterError):
            Rect(0, 0, 0, 5)

    def test_overlap_detection(self):
        a = Rect(0, 0, 10, 10)
        assert a.overlaps(Rect(5, 5, 10, 10))
        assert not a.overlaps(Rect(20, 20, 5, 5))

    def test_touching_edges_do_not_overlap(self):
        a = Rect(0, 0, 10, 10)
        assert not a.overlaps(Rect(10, 0, 10, 10))

    def test_facing_length_horizontal(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(11, 2, 10, 10)  # 1 mm gap, y-overlap 8
        assert a.facing_length(b, max_gap=1.5) == pytest.approx(8.0)

    def test_facing_length_vertical(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(3, 11, 10, 10)  # 1 mm gap above, x-overlap 7
        assert a.facing_length(b, max_gap=1.5) == pytest.approx(7.0)

    def test_facing_length_too_far(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(15, 0, 10, 10)  # 5 mm gap
        assert a.facing_length(b, max_gap=1.5) == 0.0

    def test_facing_length_symmetric(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(11, 2, 10, 10)
        assert a.facing_length(b, 1.5) == b.facing_length(a, 1.5)

    def test_square_for_area(self):
        w, h = square_for_area(64.0)
        assert w == h == 8.0


class TestPlacer:
    def test_two_dies_adjacent(self):
        plan = place_dies([100.0, 100.0], die_gap_mm=1.0)
        assert plan.is_overlap_free()
        assert total_adjacent_length_mm(plan) == pytest.approx(10.0)

    def test_total_area_preserved(self):
        areas = [100.0, 64.0, 81.0]
        plan = place_dies(areas)
        placed = sum(d.rect.width * d.rect.height for d in plan.dies)
        assert placed == pytest.approx(sum(areas))

    def test_names_carried(self):
        plan = place_dies([50.0, 60.0], names=["a", "b"])
        assert {d.name for d in plan.dies} == {"a", "b"}

    def test_name_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            place_dies([50.0], names=["a", "b"])

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            place_dies([])

    def test_rejects_non_positive_area(self):
        with pytest.raises(ParameterError):
            place_dies([10.0, -5.0])

    def test_epyc_like_layout_has_adjacency(self):
        """4 CCDs + 1 I/O die: every die pair contributes bridge length."""
        plan = place_dies([74.0] * 4 + [416.0], die_gap_mm=1.0)
        assert plan.is_overlap_free()
        assert total_adjacent_length_mm(plan) > 0.0
        assert len(adjacent_pairs(plan)) >= 4

    def test_row_wrap(self):
        """Many dies wrap to multiple rows within the width budget."""
        plan = place_dies([100.0] * 6, die_gap_mm=1.0, max_row_width_mm=25.0)
        assert plan.is_overlap_free()
        ys = {d.rect.y for d in plan.dies}
        assert len(ys) > 1

    def test_gap_respected(self):
        plan = place_dies([100.0, 100.0], die_gap_mm=2.0)
        a, b = sorted((d.rect for d in plan.dies), key=lambda r: r.x)
        assert b.x - a.x2 == pytest.approx(2.0)
        assert a.y == b.y

    @given(
        areas=st.lists(
            st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=8
        ),
        gap=st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_overlaps(self, areas, gap):
        plan = place_dies(areas, die_gap_mm=gap)
        assert plan.is_overlap_free()

    @given(
        areas=st.lists(
            st.floats(min_value=4.0, max_value=400.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_adjacency_non_negative_and_bounded(self, areas):
        plan = place_dies(areas, die_gap_mm=1.0)
        total = total_adjacent_length_mm(plan)
        assert total >= 0.0
        perimeter = sum(
            2.0 * (d.rect.width + d.rect.height) for d in plan.dies
        )
        assert total <= perimeter
