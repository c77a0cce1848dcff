"""Odd-Even turn-model routing (Chiu, 2000) — partially adaptive baseline.

The Odd-Even turn model forbids:

* Rule 1: EN turns at nodes in even columns and NW turns at nodes in odd
  columns;
* Rule 2: ES turns at nodes in even columns and SW turns at nodes in odd
  columns.

The resulting minimal routing function (Chiu's ``ROUTE`` algorithm, which
this module transcribes) is deadlock-free in a mesh without escape VCs, so
— like DOR — Odd-Even may use all VCs, and (per the paper's §4.2.1) it
re-allocates VCs non-atomically, giving it higher buffer utilization than
Duato-based algorithms.

Output-port selection among the permitted directions follows the paper's
configuration: "the number of idle VCs is used to select output ports".

The turn rules are *mesh-structural*: Chiu's deadlock-freedom proof keys
the forbidden turns off absolute column parity and relies on the absence
of wrap-around channels, neither of which survives on a torus (a wrap
link connects columns ``k-1`` and ``0`` — adjacent columns of equal
parity when ``k`` is even).  The algorithm therefore declares
``topologies = ("mesh",)`` and config validation rejects it elsewhere.
"""

from __future__ import annotations

from repro.routing.base import RouteContext, RoutingAlgorithm
from repro.routing.requests import VcRequest
from repro.topology.base import Topology
from repro.topology.ports import Direction


class OddEvenRouting(RoutingAlgorithm):
    """Minimal partially-adaptive Odd-Even routing."""

    name = "oddeven"
    uses_escape = False
    atomic_vc_reallocation = False
    topologies = ("mesh",)

    def select_output(self, ctx: RouteContext) -> Direction:
        if ctx.current == ctx.destination:
            return Direction.LOCAL
        candidates = self.allowed_directions(
            ctx.mesh, ctx.current, ctx.destination, ctx.source
        )
        if ctx.dead_ports:
            candidates = self.live_candidates(ctx, candidates)
        return self._select_port(ctx, candidates)

    def vc_requests_at(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        if direction is Direction.LOCAL:
            return self.eject_requests(ctx)
        return self.idle_requests(ctx, direction)

    def _select_port(
        self, ctx: RouteContext, candidates: list[Direction]
    ) -> Direction:
        """Pick the candidate with the most idle downstream VCs."""
        if len(candidates) == 1:
            return candidates[0]
        outputs = ctx.outputs
        best, tied = -1, []
        for d in candidates:
            view = outputs[d]
            idle = (view.free & view.adaptive).bit_count()
            if idle > best:
                best, tied = idle, [d]
            elif idle == best:
                tied.append(d)
        if len(tied) == 1:
            return tied[0]
        return tied[ctx.rng.randrange(len(tied))]

    def allowed_directions(
        self, mesh: Topology, current: int, destination: int, source: int
    ) -> list[Direction]:
        """Chiu's minimal ROUTE function for the Odd-Even turn model."""
        if current == destination:
            return [Direction.LOCAL]
        cx, cy = mesh.coords(current)
        dx, dy = mesh.coords(destination)
        sx, _sy = mesh.coords(source)
        e0 = dx - cx  # X offset (east positive)
        e1 = dy - cy  # Y offset (south positive)
        vertical = Direction.SOUTH if e1 > 0 else Direction.NORTH

        avail: list[Direction] = []
        if e0 == 0:
            # Destination in the same column: go vertically.
            avail.append(vertical)
        elif e0 > 0:
            # Destination to the east.
            if e1 == 0:
                avail.append(Direction.EAST)
            else:
                # EN/ES turns are forbidden at even columns, so turning
                # vertically here is only allowed at odd columns — except in
                # the source column, where no turn is being taken yet.
                if cx % 2 == 1 or cx == sx:
                    avail.append(vertical)
                # Continuing east must not strand the packet: if the
                # destination column is even, the final NW/SW-free approach
                # requires the vertical move to happen before it, so EAST is
                # only allowed if the destination column is odd or the
                # packet is not yet adjacent to it.
                if dx % 2 == 1 or e0 != 1:
                    avail.append(Direction.EAST)
        else:
            # Destination to the west: NW/SW turns are forbidden at odd
            # columns, so the vertical move may only be taken at even
            # columns; WEST itself is always productive.
            avail.append(Direction.WEST)
            if e1 != 0 and cx % 2 == 0:
                avail.append(vertical)
        return avail
