"""Dimension-order (XY) routing — the paper's deterministic baseline.

DOR resolves the X offset completely before the Y offset, which makes it
deadlock-free in a mesh without any dedicated escape resources, so all VCs
are usable by every packet and there is no VC regulation at all: the
algorithm requests every free downstream VC at equal priority.  This is
exactly the behaviour Fig. 2(a) of the paper illustrates — congestion
saturates all VCs of the single permitted path.

On a torus the wrap links reintroduce cyclic channel dependencies, so DOR
partitions the VCs into two dateline halves — VCs ``[0, n/2)`` carry
class-0 (pre-wrap) hops, VCs ``[n/2, n)`` class-1 hops — per
:meth:`~repro.topology.base.Topology.wrap_vc_class`.  On a mesh
(``num_vc_classes == 1``) the partition disappears and behaviour is
unchanged.
"""

from __future__ import annotations

from repro.routing.base import RouteContext, RoutingAlgorithm
from repro.routing.requests import Priority, VcRequest
from repro.topology.base import Topology
from repro.topology.ports import Direction


class DorRouting(RoutingAlgorithm):
    """Deterministic XY dimension-order routing."""

    name = "dor"
    uses_escape = False
    atomic_vc_reallocation = False

    def select_output(self, ctx: RouteContext) -> Direction:
        return ctx.mesh.dor_direction(ctx.current, ctx.destination)

    def vc_requests_at(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        if direction is Direction.LOCAL:
            return self.eject_requests(ctx)
        if ctx.mesh.num_vc_classes > 1:
            view = ctx.outputs[direction]
            # Torus dateline: only the VCs of this hop's wrap class are
            # requestable, keeping each ring's dependency graph acyclic.
            cls = ctx.mesh.wrap_vc_class(
                ctx.current, ctx.destination, direction
            )
            half = (1 << ctx.num_vcs // 2) - 1
            idle = view.free & view.adaptive & (half if cls == 0 else ~half)
            return [(direction, idle, Priority.LOW)] if idle else []
        # Any free VC at equal priority; busy VCs are re-requested (i.e.
        # become requestable) on the cycle they free.
        return self.idle_requests(ctx, direction)

    def vc_class(self, num_vcs: int, vc: int) -> int | None:
        """The dateline half ``vc`` belongs to (0 = pre-wrap, 1 = post)."""
        return 0 if vc < num_vcs // 2 else 1

    def allowed_directions(
        self, mesh: Topology, current: int, destination: int, source: int
    ) -> list[Direction]:
        if current == destination:
            return [Direction.LOCAL]
        return [mesh.dor_direction(current, destination)]
