"""Unit tests for port directions."""

import pytest

from repro.topology.ports import COMPASS, NUM_PORTS, OPPOSITE, Direction


def test_five_ports():
    assert NUM_PORTS == 5
    assert len(Direction) == 5


def test_compass_excludes_local():
    assert Direction.LOCAL not in COMPASS
    assert len(COMPASS) == 4


def test_opposites_are_involutions():
    for d in Direction:
        assert OPPOSITE[OPPOSITE[d]] is d


def test_opposite_pairs():
    assert OPPOSITE[Direction.EAST] is Direction.WEST
    assert OPPOSITE[Direction.NORTH] is Direction.SOUTH
    assert OPPOSITE[Direction.LOCAL] is Direction.LOCAL


def test_dimensions():
    assert Direction.EAST.dimension == 0
    assert Direction.WEST.dimension == 0
    assert Direction.NORTH.dimension == 1
    assert Direction.SOUTH.dimension == 1


def test_local_has_no_dimension():
    with pytest.raises(ValueError):
        Direction.LOCAL.dimension


def test_stable_integer_values():
    # These values are used as array indices; they must not change.
    assert [d.value for d in COMPASS] == [0, 1, 2, 3]
    assert Direction.LOCAL.value == 4
