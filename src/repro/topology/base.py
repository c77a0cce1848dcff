"""The topology contract shared by all network geometries.

Everything above the topology layer (routers, routing algorithms, the
engine, fault validation, traffic factories) talks to the network's
geometry exclusively through the :class:`Topology` protocol: node
coordinates, neighbour/channel enumeration, minimal and dimension-order
routing directions, hop distances, path counts, and the wrap-link VC
class used for deadlock avoidance on topologies with wrap-around links.

Two concrete topologies implement the protocol:

* :class:`~repro.topology.mesh.Mesh2D` — the k-ary 2-mesh the paper
  evaluates (``num_vc_classes == 1``; no wrap links, so
  :meth:`Topology.wrap_vc_class` is constant 0);
* :class:`~repro.topology.torus.Torus2D` — a k-ary 2-torus whose wrap
  links are made safe by a dateline VC scheme (``num_vc_classes == 2``).

Both are rectangular grids and share :class:`Grid2D`: dimension
validation, the row-major coordinate system, channel enumeration and
value semantics.  A subclass states only what the wrap links change.

Instances are pure geometry — no simulation state — so one instance can
be shared freely between the engine, routers, and validators.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.exceptions import TopologyError
from repro.topology.ports import COMPASS, Direction

#: Topology names accepted by :func:`create_topology` and
#: ``SimulationConfig.topology``, in presentation order.
TOPOLOGIES: tuple[str, ...] = ("mesh", "torus")

#: The nine answers :meth:`Grid2D.minimal_directions` can give — at most
#: one direction per dimension, X first — at the one-byte code a geometry
#: table stores for them; code 0 is "not computed yet".
_MINIMAL_ANSWERS: tuple[tuple[Direction, ...], ...] = ((),) + tuple(
    x + y
    for x in ((), (Direction.EAST,), (Direction.WEST,))
    for y in ((), (Direction.SOUTH,), (Direction.NORTH,))
)
_ANSWER_CODE = {
    dirs: code for code, dirs in enumerate(_MINIMAL_ANSWERS) if code
}
#: :meth:`Grid2D.dor_direction` at the same codes: X is listed first.
_DOR_ANSWERS = tuple(
    dirs[0] if dirs else Direction.LOCAL for dirs in _MINIMAL_ANSWERS
)


@runtime_checkable
class Topology(Protocol):
    """Geometry queries every network topology must answer.

    The protocol is structural: anything with these members satisfies
    it (``Mesh2D`` and ``Torus2D`` do so through :class:`Grid2D`).  All
    methods are pure functions of node ids (plus internal caches); none
    mutate observable state.
    """

    #: Registry name (``"mesh"`` / ``"torus"``).
    name: str
    #: X-dimension radix (columns).
    width: int
    #: Y-dimension radix (rows).
    height: int
    #: ``width * height``.
    num_nodes: int
    #: Number of dateline VC classes deadlock avoidance needs on this
    #: topology: 1 when the channel dependency graph is already acyclic
    #: under dimension-order routing (mesh), 2 when wrap-around links
    #: require a dateline split (torus).
    num_vc_classes: int

    def coords(self, node: int) -> tuple[int, int]:
        """``(x, y)`` coordinates of ``node``."""
        ...

    def node_at(self, x: int, y: int) -> int:
        """Node id at coordinates ``(x, y)``."""
        ...

    def neighbor(self, node: int, direction: Direction) -> int | None:
        """Neighbour through ``direction`` (``None`` at a mesh edge)."""
        ...

    def router_ports(self, node: int) -> list[Direction]:
        """All ports present on ``node``'s router, LOCAL last."""
        ...

    def channels(self) -> list[tuple[int, Direction, int]]:
        """All unidirectional channels as ``(src, direction, dst)``."""
        ...

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        ...

    def minimal_directions(self, cur: int, dst: int) -> tuple[Direction, ...]:
        """Productive (minimal) directions from ``cur`` towards ``dst``:
        an interned, immutable tuple, X first."""
        ...

    def dor_direction(self, cur: int, dst: int) -> Direction:
        """Dimension-order (XY) next direction from ``cur`` to ``dst``."""
        ...

    def num_minimal_paths(self, src: int, dst: int) -> int:
        """Number of distinct minimal paths between ``src`` and ``dst``."""
        ...

    def wrap_vc_class(self, cur: int, dst: int, direction: Direction) -> int:
        """Dateline VC class for the hop from ``cur`` through ``direction``.

        On topologies without wrap links this is always 0.  On a torus it
        is 0 while the packet's remaining ring traversal (continuing in
        ``direction`` from the downstream node) still has to cross the
        ring's wrap link, and 1 from the wrap hop onward — see
        :meth:`~repro.topology.torus.Torus2D.wrap_vc_class` for the
        deadlock-freedom argument.
        """
        ...


class Grid2D:
    """What every ``width x height`` grid topology shares.

    Node numbering is row-major: node ``n`` sits at ``(x, y) = (n %
    width, n // width)`` with ``x`` growing eastward and ``y`` growing
    southward.  Subclasses set ``name`` / ``num_vc_classes`` and supply
    ``neighbor``, ``router_ports``, ``hop_distance``,
    ``_productive_directions`` (what :meth:`minimal_directions` tabulates),
    ``num_minimal_paths`` and ``wrap_vc_class``.
    """

    name: str
    num_vc_classes: int

    def __init__(self, width: int, height: int | None = None) -> None:
        if height is None:
            height = width
        if width < 2 or height < 2:
            raise TopologyError(
                f"{self.name} dimensions must be at least 2x2, "
                f"got {width}x{height}"
            )
        self.width = width
        self.height = height
        self.num_nodes = width * height
        # Geometry caches: routing queries sit on the simulator's hottest
        # path and are pure functions of (node, node).
        self._coords = [(n % width, n // width) for n in range(self.num_nodes)]
        # minimal_directions(cur, dst) at [cur * num_nodes + dst], filled
        # on first use: one byte per pair, a code into _MINIMAL_ANSWERS.
        self._min_dirs = bytearray(self.num_nodes * self.num_nodes)

    def coords(self, node: int) -> tuple[int, int]:
        """Return ``(x, y)`` coordinates of ``node``."""
        self._check_node(node)
        return self._coords[node]

    def node_at(self, x: int, y: int) -> int:
        """Return the node id at coordinates ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise TopologyError(f"coordinates ({x}, {y}) outside {self}")
        return y * self.width + x

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise TopologyError(f"node {node} outside {self}")

    def channels(self) -> list[tuple[int, Direction, int]]:
        """Enumerate all inter-router channels as ``(src, direction, dst)``.

        Each unidirectional link appears once; a bidirectional link
        contributes two entries.
        """
        out: list[tuple[int, Direction, int]] = []
        for node in range(self.num_nodes):
            for d in COMPASS:
                nbr = self.neighbor(node, d)
                if nbr is not None:
                    out.append((node, d, nbr))
        return out

    def minimal_directions(self, cur: int, dst: int) -> tuple[Direction, ...]:
        """Productive (minimal) directions from ``cur`` towards ``dst``.

        At most one direction per dimension, X first then Y; the empty
        tuple means ``cur == dst`` (the packet should eject through
        ``LOCAL``).  The result is interned and immutable: equal answers
        are the same object, for every pair and every grid.
        """
        n = self.num_nodes
        if 0 <= cur < n and 0 <= dst < n:
            code = self._min_dirs[cur * n + dst]
            if code:
                return _MINIMAL_ANSWERS[code]
        return _MINIMAL_ANSWERS[self._tabulate(cur, dst)]

    def dor_direction(self, cur: int, dst: int) -> Direction:
        """Dimension-order (XY) next direction from ``cur`` to ``dst``.

        X is fully resolved before Y: the first of
        :meth:`minimal_directions`; ``LOCAL`` at the destination.  (Its
        own read of the table: the escape request asks this for every
        waiting head.)
        """
        n = self.num_nodes
        if 0 <= cur < n and 0 <= dst < n:
            code = self._min_dirs[cur * n + dst]
            if code:
                return _DOR_ANSWERS[code]
        return _DOR_ANSWERS[self._tabulate(cur, dst)]

    def _tabulate(self, cur: int, dst: int) -> int:
        """Compute, store and return the table code of a pair not asked
        about before.  Out-of-range nodes raise here — unchecked, the
        flat index would alias them to some other pair."""
        self._check_node(cur)
        self._check_node(dst)
        code = _ANSWER_CODE[self._productive_directions(cur, dst)]
        self._min_dirs[cur * self.num_nodes + dst] = code
        return code

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.width}x{self.height})"

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.width == other.width
            and self.height == other.height
        )

    def __hash__(self) -> int:
        return hash((self.name, self.width, self.height))


def create_topology(
    name: str, width: int, height: int | None = None
) -> Topology:
    """Instantiate the topology registered under ``name`` (exactly).

    A config checks its name when built; fault-schedule helpers call
    this without one, so an unknown name is a :class:`TopologyError`
    listing the valid choices.
    """
    # Imported here: mesh.py and torus.py import Grid2D from this module.
    from repro.topology.mesh import Mesh2D
    from repro.topology.torus import Torus2D

    if name == "mesh":
        return Mesh2D(width, height)
    if name == "torus":
        return Torus2D(width, height)
    raise TopologyError(
        f"unknown topology {name!r}; available: {', '.join(TOPOLOGIES)}"
    )
