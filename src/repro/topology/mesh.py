"""Geometry of a k-ary 2-mesh (2D mesh) network.

Node numbering is row-major: node ``n`` sits at coordinates
``(x, y) = (n % width, n // width)`` with ``x`` growing eastward and ``y``
growing southward.  This matches the numbering used in the paper's figures
(e.g. in a 4x4 mesh, node 10 is at column 2, row 2, and flows
``n0 -> n10`` and ``n1 -> n15`` converge on the ``n1 -> n2`` link under
dimension-order routing).
"""

from __future__ import annotations

import math

from repro.exceptions import TopologyError
from repro.topology.base import Grid2D
from repro.topology.ports import COMPASS, Direction


class Mesh2D(Grid2D):
    """A ``width x height`` 2D mesh.

    The mesh provides pure geometry queries: coordinates, neighbours,
    minimal-routing port sets, and hop distances.  It holds no simulation
    state; routers and channels are built on top of it by the engine.

    Parameters
    ----------
    width:
        Number of columns (the X dimension radix).
    height:
        Number of rows (the Y dimension radix).  Defaults to ``width``
        (a square mesh) when omitted.
    """

    #: Registry name (see :func:`repro.topology.base.create_topology`).
    name = "mesh"

    #: A mesh has no wrap links, so dimension-order routing is already
    #: deadlock-free with a single VC class (see
    #: :meth:`~repro.topology.base.Topology.wrap_vc_class`).
    num_vc_classes = 1

    # ------------------------------------------------------------------
    # Neighbours
    # ------------------------------------------------------------------
    def neighbor(self, node: int, direction: Direction) -> int | None:
        """Return the neighbour of ``node`` through ``direction``.

        Returns ``None`` when the port faces the mesh edge (meshes have no
        wrap-around links).  ``LOCAL`` has no neighbouring router and raises.
        """
        if direction is Direction.LOCAL:
            raise TopologyError("LOCAL port has no neighbouring router")
        x, y = self.coords(node)
        if direction is Direction.EAST:
            return node + 1 if x + 1 < self.width else None
        if direction is Direction.WEST:
            return node - 1 if x - 1 >= 0 else None
        if direction is Direction.SOUTH:
            return node + self.width if y + 1 < self.height else None
        return node - self.width if y - 1 >= 0 else None

    def router_ports(self, node: int) -> list[Direction]:
        """All ports present on ``node``'s router, LOCAL last."""
        ports = [d for d in COMPASS if self.neighbor(node, d) is not None]
        ports.append(Direction.LOCAL)
        return ports

    # ------------------------------------------------------------------
    # Minimal routing geometry
    # ------------------------------------------------------------------
    def hop_distance(self, src: int, dst: int) -> int:
        """Manhattan (minimal hop) distance between two nodes."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def _productive_directions(
        self, cur: int, dst: int
    ) -> tuple[Direction, ...]:
        """Towards ``dst`` in each dimension that differs, X first."""
        cx, cy = self._coords[cur]
        dx, dy = self._coords[dst]
        dirs: list[Direction] = []
        if dx > cx:
            dirs.append(Direction.EAST)
        elif dx < cx:
            dirs.append(Direction.WEST)
        if dy > cy:
            dirs.append(Direction.SOUTH)
        elif dy < cy:
            dirs.append(Direction.NORTH)
        return tuple(dirs)

    def num_minimal_paths(self, src: int, dst: int) -> int:
        """Number of distinct minimal paths between ``src`` and ``dst``.

        For a mesh this is the binomial coefficient ``C(dx + dy, dx)``
        where ``dx`` and ``dy`` are the per-dimension offsets.
        """
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        ax, ay = abs(sx - dx), abs(sy - dy)
        return math.comb(ax + ay, ax)

    def wrap_vc_class(self, cur: int, dst: int, direction: Direction) -> int:
        """Dateline VC class of a hop — always 0 on a mesh (no wrap links)."""
        return 0
