"""Per-channel utilization accounting and text heatmaps.

The telemetry hub (or, historically, the engine itself via
``track_utilization``) counts every flit that traverses each output
channel.  :class:`ChannelUtilization` turns those counts into utilization
fractions and renders them as a text heatmap — a quick way to *see* where
a congestion tree sits without a plotting stack.

Counts live in a flat preallocated array indexed by
``node * NUM_PORTS + direction``: :meth:`record` is called once per flit
per hop, making it the hottest metrics call in the simulator, and an
array increment beats the ``dict.get`` upsert it replaced.  The
``(node, direction)``-keyed mapping the analysis code reads is exposed as
the :attr:`counts` property, a thin adapter over the array.
"""

from __future__ import annotations

from repro.topology.base import Topology
from repro.topology.ports import NUM_PORTS, Direction


class ChannelUtilization:
    """Flit counts per output channel, keyed by ``(node, direction)``."""

    __slots__ = ("mesh", "cycles", "_counts")

    def __init__(
        self,
        mesh: Topology,
        cycles: int = 0,
        counts: dict[tuple[int, Direction], int] | None = None,
    ) -> None:
        self.mesh = mesh
        self.cycles = cycles
        self._counts = [0] * (mesh.num_nodes * NUM_PORTS)
        if counts:
            for (node, direction), count in counts.items():
                self._counts[node * NUM_PORTS + direction] = count

    @property
    def counts(self) -> dict[tuple[int, Direction], int]:
        """Nonzero per-channel flit counts as a ``(node, direction)`` map."""
        return {
            (index // NUM_PORTS, Direction(index % NUM_PORTS)): count
            for index, count in enumerate(self._counts)
            if count
        }

    def record(self, node: int, direction: Direction) -> None:
        self._counts[node * NUM_PORTS + direction] += 1

    def count(self, node: int, direction: Direction) -> int:
        """Raw flit count of one channel."""
        return self._counts[node * NUM_PORTS + direction]

    def utilization(self, node: int, direction: Direction) -> float:
        """Fraction of cycles the channel carried a flit (link rate 1)."""
        if self.cycles == 0:
            return 0.0
        return self._counts[node * NUM_PORTS + direction] / self.cycles

    def busiest(self, top: int = 5) -> list[tuple[int, Direction, float]]:
        """The ``top`` most-utilized channels, descending.

        Ties break deterministically by ascending node then direction.
        """
        ranked = sorted(
            (
                (node, direction, self.utilization(node, direction))
                for (node, direction) in self.counts
            ),
            key=lambda item: (-item[2], item[0], int(item[1])),
        )
        return ranked[:top]

    # ------------------------------------------------------------------
    def heatmap(self, direction: Direction = Direction.EAST) -> str:
        """Render a per-node utilization grid for one channel direction.

        Each cell shows the utilization of the node's output channel in
        ``direction`` as a percentage; edge nodes without that channel
        show ``--``.
        """
        lines = [f"channel utilization heatmap ({direction.name})"]
        for y in range(self.mesh.height):
            cells = []
            for x in range(self.mesh.width):
                node = self.mesh.node_at(x, y)
                if (
                    direction is not Direction.LOCAL
                    and self.mesh.neighbor(node, direction) is None
                ):
                    cells.append("  --")
                else:
                    cells.append(
                        f"{100 * self.utilization(node, direction):4.0f}"
                    )
            lines.append(" ".join(cells))
        return "\n".join(lines)
