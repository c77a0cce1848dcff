#!/usr/bin/env python3
"""Extend the simulator with a custom routing algorithm.

The routing interface has two stages (mirroring a hardware router
pipeline): ``select_output`` commits to an output port once per packet per
router, and ``vc_requests_at`` re-issues VC requests each cycle until the
packet wins a VC.  This example implements "O1TURN-lite" — a minimal
oblivious algorithm that randomly picks XY or YX order per packet at the
source and then follows it — and races it against DOR and Footprint on
transpose traffic.

Run:  python examples/custom_routing_algorithm.py
"""

from repro import SimulationConfig, Simulator
from repro.routing.base import RouteContext, RoutingAlgorithm
from repro.routing.requests import Priority, VcRequest
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction
import repro.routing.registry as registry


class O1TurnLite(RoutingAlgorithm):
    """Randomized XY/YX dimension-order routing.

    The order is chosen per packet at injection (hash of the packet's
    identity via the router RNG would be non-deterministic across hops, so
    the parity of ``src + dst`` decides the order — a deterministic
    stand-in for O1TURN's random choice that still splits traffic across
    both orders).  Like DOR, it never takes a U-turn between dimensions,
    and using disjoint VC classes per order would make it fully
    deadlock-free; this lite version relies on the mesh's acyclic X/Y
    usage per packet.
    """

    name = "o1turn-lite"
    uses_escape = False
    atomic_vc_reallocation = False

    def _order_is_xy(self, ctx: RouteContext) -> bool:
        return (ctx.source + ctx.destination) % 2 == 0

    def select_output(self, ctx: RouteContext) -> Direction:
        if ctx.current == ctx.destination:
            return Direction.LOCAL
        dirs = ctx.mesh.minimal_directions(ctx.current, ctx.destination)
        if len(dirs) == 1:
            return dirs[0]
        x_dir = dirs[0]  # minimal_directions lists X first
        y_dir = dirs[1]
        return x_dir if self._order_is_xy(ctx) else y_dir

    def vc_requests_at(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        if direction is Direction.LOCAL:
            return self.eject_requests(ctx)
        # Split the VC pool by routing order to keep the two orders'
        # channel dependencies disjoint (O1TURN's deadlock-freedom trick).
        # VC sets are masks (bit v = VC v): the split is one AND.
        view = ctx.outputs[direction]
        low_half = (1 << ctx.num_vcs // 2) - 1
        pool = low_half if self._order_is_xy(ctx) else ~low_half
        vcs = view.free & view.adaptive & pool
        # One record per priority class; an empty class emits none.
        return [VcRequest(direction, vcs, Priority.LOW)] if vcs else []

    def allowed_directions(
        self, mesh: Mesh2D, current: int, destination: int, source: int
    ) -> list[Direction]:
        if current == destination:
            return [Direction.LOCAL]
        return mesh.minimal_directions(current, destination)


def main() -> None:
    # Register the custom algorithm so SimulationConfig can name it.
    registry._BASE_FACTORIES["o1turn-lite"] = O1TurnLite

    for routing in ("dor", "o1turn-lite", "footprint"):
        config = SimulationConfig(
            width=8,
            num_vcs=10,
            routing=routing,
            traffic="transpose",
            injection_rate=0.30,
            warmup_cycles=200,
            measure_cycles=400,
            drain_cycles=1000,
            seed=9,
        )
        result = Simulator(config).run()
        print(
            f"{routing:12s}  latency={result.avg_latency:8.2f}  "
            f"accepted={result.accepted_rate:.4f}  "
            f"drained={'yes' if result.drained else 'no'}"
        )


if __name__ == "__main__":
    main()
