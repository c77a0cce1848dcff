"""Geometry of a k-ary 2-torus (2D torus) network.

Node numbering, coordinate conventions, and the port model are identical
to :class:`~repro.topology.mesh.Mesh2D` — row-major ids, ``x`` growing
eastward, ``y`` growing southward — except that every ring wraps: node
``(width-1, y)`` has an EAST neighbour at ``(0, y)``, and so on.  Every
router therefore has all four compass ports.

Wrap links close cycles in the channel dependency graph, so
dimension-order routing alone is no longer deadlock-free.  The standard
fix — the *dateline* scheme (Dally & Towles §14.3) — splits each ring's
traffic into two VC classes and is exposed here as
:meth:`Torus2D.wrap_vc_class`; see its docstring for the exact rule and
the acyclicity argument.  The topology reports ``num_vc_classes == 2``
so routers provision one escape channel per class.
"""

from __future__ import annotations

import math

from repro.exceptions import TopologyError
from repro.topology.base import Grid2D
from repro.topology.ports import COMPASS, Direction

#: Ring directions in which the coordinate increases (mod the radix).
_POSITIVE = (Direction.EAST, Direction.SOUTH)


class Torus2D(Grid2D):
    """A ``width x height`` 2D torus.

    Pure geometry, no simulation state — the same contract as
    :class:`~repro.topology.mesh.Mesh2D` (both satisfy
    :class:`~repro.topology.base.Topology`).

    Minimal routing picks, per dimension, the shorter way around the
    ring; when the two ways tie (even radix, distance exactly ``k/2``)
    the positive direction (EAST / SOUTH) wins deterministically, so
    :meth:`minimal_directions` returns at most one direction per
    dimension and results are reproducible across engine modes.
    """

    #: Registry name (see :func:`repro.topology.base.create_topology`).
    name = "torus"

    #: Wrap links need a dateline split: two VC classes per ring.
    num_vc_classes = 2

    # ------------------------------------------------------------------
    # Neighbours
    # ------------------------------------------------------------------
    def neighbor(self, node: int, direction: Direction) -> int | None:
        """Return the neighbour of ``node`` through ``direction``.

        Tori have no edges: every compass port has a neighbour, so the
        return value is never ``None`` (the ``| None`` in the signature
        is the shared :class:`~repro.topology.base.Topology` contract).
        ``LOCAL`` has no neighbouring router and raises.
        """
        if direction is Direction.LOCAL:
            raise TopologyError("LOCAL port has no neighbouring router")
        x, y = self.coords(node)
        if direction is Direction.EAST:
            return self.node_at((x + 1) % self.width, y)
        if direction is Direction.WEST:
            return self.node_at((x - 1) % self.width, y)
        if direction is Direction.SOUTH:
            return self.node_at(x, (y + 1) % self.height)
        return self.node_at(x, (y - 1) % self.height)

    def router_ports(self, node: int) -> list[Direction]:
        """All ports present on ``node``'s router, LOCAL last.

        On a torus every router is fully populated.
        """
        self._check_node(node)
        return [*COMPASS, Direction.LOCAL]

    # ------------------------------------------------------------------
    # Minimal routing geometry
    # ------------------------------------------------------------------
    def _ring_hops(self, c: int, d: int, k: int) -> int:
        """Shorter-way hop count between ring coordinates ``c`` and ``d``."""
        forward = (d - c) % k
        return min(forward, k - forward)

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal hop distance (shorter way around each ring)."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return self._ring_hops(sx, dx, self.width) + self._ring_hops(
            sy, dy, self.height
        )

    def _ring_direction(
        self, c: int, d: int, k: int, positive: Direction, negative: Direction
    ) -> Direction | None:
        """Shorter ring direction from ``c`` to ``d`` (``None`` if equal).

        Ties (even radix, distance exactly ``k/2``) resolve to the
        positive direction so minimal routing stays deterministic.
        """
        if c == d:
            return None
        forward = (d - c) % k
        return positive if forward <= k - forward else negative

    def _productive_directions(
        self, cur: int, dst: int
    ) -> tuple[Direction, ...]:
        """The shorter way around each ring that has ground to cover
        (ties broken to EAST/SOUTH), X first."""
        cx, cy = self._coords[cur]
        dx, dy = self._coords[dst]
        x_dir = self._ring_direction(
            cx, dx, self.width, Direction.EAST, Direction.WEST
        )
        y_dir = self._ring_direction(
            cy, dy, self.height, Direction.SOUTH, Direction.NORTH
        )
        return tuple(d for d in (x_dir, y_dir) if d is not None)

    def num_minimal_paths(self, src: int, dst: int) -> int:
        """Number of distinct minimal paths between ``src`` and ``dst``.

        With the per-dimension direction fixed (shorter way, ties broken
        positively) the count is the mesh formula ``C(hx + hy, hx)`` over
        the ring hop distances.
        """
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        hx = self._ring_hops(sx, dx, self.width)
        hy = self._ring_hops(sy, dy, self.height)
        return math.comb(hx + hy, hx)

    # ------------------------------------------------------------------
    # Dateline VC classes
    # ------------------------------------------------------------------
    def wrap_vc_class(self, cur: int, dst: int, direction: Direction) -> int:
        """Dateline VC class for the hop from ``cur`` through ``direction``.

        Rule: the hop is **class 0** while the packet's remaining ring
        traversal — continuing in ``direction`` from the *downstream*
        node — still has to cross the ring's wrap link, and **class 1**
        from the wrap hop onward.  Packets whose ring path never wraps
        ride entirely in class 1.

        Deadlock-freedom: order the ring's channels as

        ``class0(0->1) < ... < class0(k-2->k-1) < class1(wrap) <
        class1(0->1) < ... < class1(k-2->k-1)``

        (positive direction shown; the negative ring is symmetric).  A
        class-0 hop always has the wrap ahead, so successive class-0
        channels strictly ascend toward the wrap; the wrap hop itself is
        class 1 (from its downstream node the wrap is behind); and a
        class-1 packet never crosses the wrap again, so class-1 channels
        also strictly ascend.  Every packet's channel sequence is
        monotone in that total order, hence the per-ring dependency
        graph is acyclic; dimension order (X before Y) composes the
        rings acyclically as on the mesh.
        """
        if direction is Direction.LOCAL:
            raise TopologyError("LOCAL hop has no wrap VC class")
        cx, cy = self.coords(cur)
        dx, dy = self.coords(dst)
        if direction.dimension == 0:
            k, c, d = self.width, cx, dx
        else:
            k, c, d = self.height, cy, dy
        if direction in _POSITIVE:
            downstream = (c + 1) % k
            return 0 if d < downstream else 1
        downstream = (c - 1) % k
        return 0 if d > downstream else 1
