"""Congestion-tree extraction and branch-thickness measurement (paper §1-2).

A destination's congestion tree is the set of channels whose VCs hold (or
are reserved by) packets destined to it, rooted at the destination's
ejection port.  The paper's central observation is that the *thickness* of
the tree's branches — how many VCs of each channel participate — governs
how much HoL blocking the tree inflicts on unrelated traffic.  Footprint's
goal is a tree with few branches, each one VC thick (Fig. 4), versus the
all-VC-thick branches of DOR/fully-adaptive routing (Fig. 2).

:func:`extract_congestion_tree` reads a live :class:`Simulator` and builds
the tree for a destination from the routers' output-port owner tables plus
buffered flits, so it measures exactly the state Footprint's owner
registers track.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.engine import Simulator
from repro.topology.ports import Direction


@dataclass
class CongestionTree:
    """Congestion tree of one destination at one instant.

    ``branches`` maps a channel — identified by ``(node, direction)`` of
    the upstream router's output port — to the set of VC indices
    participating in the tree on that channel.
    """

    destination: int
    branches: dict[tuple[int, Direction], set[int]] = field(default_factory=dict)

    @property
    def num_branches(self) -> int:
        """Number of channels participating in the tree."""
        return len(self.branches)

    @property
    def total_vcs(self) -> int:
        """Total VCs participating across all branches."""
        return sum(len(vcs) for vcs in self.branches.values())

    @property
    def max_thickness(self) -> int:
        """VC count of the thickest branch (0 for an empty tree)."""
        if not self.branches:
            return 0
        return max(len(vcs) for vcs in self.branches.values())

    @property
    def mean_thickness(self) -> float:
        if not self.branches:
            return 0.0
        return self.total_vcs / len(self.branches)

    def describe(self) -> str:
        lines = [
            f"congestion tree for destination {self.destination}: "
            f"{self.num_branches} branches, {self.total_vcs} VCs, "
            f"max thickness {self.max_thickness}"
        ]
        for (node, direction), vcs in sorted(self.branches.items()):
            lines.append(
                f"  n{node}.{direction.name:<5} VCs {sorted(vcs)}"
            )
        return "\n".join(lines)


def extract_congestion_tree(
    simulator: Simulator, destination: int, include_local: bool = True
) -> CongestionTree:
    """Build the congestion tree of ``destination`` from live state.

    A VC participates when the upstream output port's owner table assigns
    it to ``destination``, or when any flit buffered in the corresponding
    downstream input VC (or staged in the output FIFO on that VC) is headed
    to ``destination``.
    """
    tree = CongestionTree(destination)

    def mark(node: int, direction: Direction, vc: int) -> None:
        tree.branches.setdefault((node, direction), set()).add(vc)

    for router in simulator.routers:
        for direction, port in router.output_ports.items():
            if direction is Direction.LOCAL and not include_local:
                continue
            for vc in range(port.num_vcs):
                if (
                    not port.grantable(vc)
                    and port.owner_dst[vc] == destination
                ):
                    mark(router.node, direction, vc)
            for flit, vc in port.fifo:
                if flit.dst == destination:
                    mark(router.node, direction, vc)
        for direction, vcs in router.input_vcs.items():
            if direction is Direction.LOCAL:
                continue
            upstream = simulator.mesh.neighbor(router.node, direction)
            if upstream is None:
                continue
            from repro.topology.ports import OPPOSITE

            for vc_index, ivc in enumerate(vcs):
                if any(f.dst == destination for f in ivc.fifo):
                    mark(upstream, OPPOSITE[direction], vc_index)
    return tree
