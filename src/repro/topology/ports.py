"""Port directions for 2D-mesh routers.

A mesh router has up to five ports: four compass directions connecting to
neighbouring routers plus a ``LOCAL`` port connecting to the endpoint node
(its network interface).  Directions double as port identifiers throughout
the simulator: an input port and an output port of the same router share the
same :class:`Direction` value.
"""

from __future__ import annotations

import enum


class Direction(enum.IntEnum):
    """The five router port directions of a 2D mesh.

    The integer values are stable and used as array indices in hot paths.
    """

    EAST = 0
    WEST = 1
    NORTH = 2
    SOUTH = 3
    LOCAL = 4

    @property
    def dimension(self) -> int:
        """Dimension index: 0 for X (east/west), 1 for Y (north/south).

        Raises :class:`ValueError` for ``LOCAL`` which has no dimension.
        """
        if self in (Direction.EAST, Direction.WEST):
            return 0
        if self in (Direction.NORTH, Direction.SOUTH):
            return 1
        raise ValueError("LOCAL port has no dimension")


#: Map from a direction to the direction seen from the other end of the link.
#: A flit leaving router R through its EAST output port arrives at the WEST
#: input port of R's eastern neighbour.
OPPOSITE: dict[Direction, Direction] = {
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.LOCAL: Direction.LOCAL,
}

#: All non-local directions, in index order.
COMPASS: tuple[Direction, ...] = (
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)

#: Number of ports on a (fully populated) mesh router.
NUM_PORTS: int = 5
