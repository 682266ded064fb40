"""Eq. 14's ``Σ l_adjacent`` as the ranked grid of the die sides."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resolve import adjacent_length_mm

areas = st.lists(st.floats(min_value=1.0, max_value=900.0),
                 min_size=1, max_size=8)


def test_two_dies_face_along_the_shorter_side():
    assert adjacent_length_mm([100.0, 64.0]) == 8.0
    assert adjacent_length_mm([64.0, 100.0]) == 8.0


def test_one_die_faces_nothing():
    assert adjacent_length_mm([100.0]) == 0.0


def test_four_equal_dies_tile_two_by_two():
    # Four facing pairs: two across each of the two grid axes.
    assert adjacent_length_mm([49.0] * 4) == 28.0


@given(areas=areas, data=st.data())
@settings(max_examples=100, deadline=None)
def test_does_not_depend_on_die_order(areas, data):
    shuffled = data.draw(st.permutations(areas))
    assert adjacent_length_mm(shuffled) == adjacent_length_mm(areas)


@given(areas=areas, index=st.integers(0, 7),
       growth=st.floats(min_value=1.0, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_non_negative_and_never_falls_when_a_die_grows(areas, index, growth):
    index %= len(areas)
    bigger = list(areas)
    bigger[index] *= growth
    base = adjacent_length_mm(areas)
    assert base >= 0.0
    assert adjacent_length_mm(bigger) >= base

