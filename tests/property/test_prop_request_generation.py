"""Route computation and request generation must equal what they replaced.

One head evaluation is a single pass over integers that emits plain
``(direction, mask, priority)`` tuples, reads the DOR direction and the
minimal candidates straight out of the grid's one-byte pair table, and
appends the escape request instead of extending by a one-element list.
The composition it replaced — ``vc_requests`` + a list-returning
``escape_request``, ``_most``-based ``select_port``, ``scored`` lists,
``VcRequest`` NamedTuple records, topology method calls — is kept here
verbatim as the ``Parent*`` classes.  For hypothesis-drawn port states
(free / stale / fresh / busy / draining VCs with drawn owners, reached
through a real router's stage methods), ``footprint_vc_limit``,
congestion threshold and dead-port mask, on every registry algorithm
including the ``+xordet`` overlays, mesh and torus:

* ``select_output`` commits to the same port and draws from the
  tie-break stream exactly as the parent does;
* ``vc_requests_at`` returns the same records in the same order at
  every port the head could have committed to, as plain tuples, and
  leaves ``rng.getstate()`` untouched.
"""

import random
from collections.abc import Sequence

from hypothesis import assume, given, settings, strategies as st

from repro.router.flit import Packet
from repro.router.router import Router
from repro.routing.base import RouteContext, RoutingAlgorithm
from repro.routing.dbar import DbarFineRouting, DbarRouting
from repro.routing.dor import DorRouting
from repro.routing.duato import DuatoAdaptiveRouting
from repro.routing.footprint import FootprintRouting
from repro.routing.oddeven import OddEvenRouting
from repro.routing.registry import available_algorithms, create_routing
from repro.routing.requests import Priority, VcRequest, bits
from repro.routing.xordet import XordetOverlay, xordet_vc
from repro.sim.config import SimulationConfig
from repro.topology.base import create_topology
from repro.topology.ports import Direction

from tests.conftest import send


# ----------------------------------------------------------------------
# The parent commit's request generation, verbatim.
# ----------------------------------------------------------------------
def _most(candidates, count):
    """``(best, tied)``: the largest ``count(d)`` and the candidates that
    reach it, in order."""
    best, tied = -1, []
    for d in candidates:
        n = count(d)
        if n > best:
            best, tied = n, [d]
        elif n == best:
            tied.append(d)
    return best, tied


class ParentHelpers:
    """``RoutingAlgorithm``'s shared helpers as the parent had them."""

    def eject_requests(self, ctx: RouteContext) -> list[VcRequest]:
        return self.idle_requests(ctx, Direction.LOCAL)

    @staticmethod
    def idle_requests(
        ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        view = ctx.outputs[direction]
        idle = view.free & view.adaptive
        return [VcRequest(direction, idle, Priority.LOW)] if idle else []

    def escape_request(self, ctx: RouteContext) -> list[VcRequest]:
        escape_dir = ctx.mesh.dor_direction(ctx.current, ctx.destination)
        view = ctx.outputs[escape_dir]
        if ctx.mesh.num_vc_classes > 1:
            evcs = view.escape_vcs
            if len(evcs) < ctx.mesh.num_vc_classes:
                return []
            vc = evcs[
                ctx.mesh.wrap_vc_class(ctx.current, ctx.destination, escape_dir)
            ]
        else:
            vc = view.escape_vc
        if vc is None or not (view.free >> vc) & 1:
            return []
        return [VcRequest(escape_dir, 1 << vc, Priority.LOWEST)]


class ParentDuato(ParentHelpers, DuatoAdaptiveRouting):
    def select_output(self, ctx: RouteContext) -> Direction:
        if ctx.current == ctx.destination:
            return Direction.LOCAL
        candidates = ctx.mesh.minimal_directions(ctx.current, ctx.destination)
        if ctx.dead_ports:
            candidates = self.live_candidates(ctx, candidates)
        if len(candidates) == 1:
            return candidates[0]
        return self.select_port(ctx, candidates)

    def vc_requests_at(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        if direction is Direction.LOCAL:
            return self.eject_requests(ctx)
        requests = self.vc_requests(ctx, direction)
        # The escape request is always present (Algorithm 1 line 45), on
        # the DOR port regardless of the committed adaptive port.
        requests.extend(self.escape_request(ctx))
        return requests


class ParentFootprint(ParentDuato):
    name = "footprint"

    def vc_requests_at(self, ctx: RouteContext, direction: Direction):
        if direction is Direction.LOCAL:
            return self.eject_requests(ctx)
        requests = self.vc_requests(ctx, direction)
        view = ctx.outputs[direction]
        waiting_on_footprint = not requests and view.footprint_mask(
            ctx.destination
        )
        if not waiting_on_footprint:
            requests.extend(self.escape_request(ctx))
        return requests

    def select_port(
        self, ctx: RouteContext, candidates: Sequence[Direction]
    ) -> Direction:
        outputs = ctx.outputs
        best_idle, tied = _most(
            candidates,
            lambda d: (outputs[d].free & outputs[d].adaptive).bit_count(),
        )
        if len(tied) > 1 and best_idle < ctx.congestion_threshold:
            dst = ctx.destination
            _, tied = _most(
                tied, lambda d: outputs[d].footprint_mask(dst).bit_count()
            )
        if len(tied) == 1:
            return tied[0]
        return tied[ctx.rng.randrange(len(tied))]

    def vc_requests(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        view = ctx.outputs[direction]
        dst = ctx.destination
        idle = view.free & view.adaptive
        fresh = idle & view.fresh
        established = idle & ~fresh
        limited = ctx.footprint_vc_limit is not None and (
            view.footprint_mask(dst).bit_count() >= ctx.footprint_vc_limit
        )

        if not limited and (
            established.bit_count() >= ctx.congestion_threshold
        ):
            return [VcRequest(direction, idle, Priority.LOW)] if idle else []

        fresh_mine = view.fresh_footprint_mask(dst) if fresh else 0
        fresh_other = fresh & ~fresh_mine
        if limited:
            established = fresh_other = 0
        elif not established and (fresh_mine or view.footprint_mask(dst)):
            fresh_other = 0
        return [
            VcRequest(direction, mask, priority)
            for mask, priority in (
                (established, Priority.HIGHEST),
                (fresh_mine, Priority.HIGH),
                (fresh_other, Priority.LOW),
            )
            if mask
        ]


class ParentDbar(ParentDuato):
    name = "dbar"

    def select_port(
        self, ctx: RouteContext, candidates: Sequence[Direction]
    ) -> Direction:
        scored = []
        for d in candidates:
            view = ctx.outputs[d]
            idle = (view.free & view.adaptive).bit_count()
            uncongested = idle >= ctx.congestion_threshold
            scored.append((uncongested, d))
        best = max(score for score, _ in scored)
        tied = [d for score, d in scored if score == best]
        if len(tied) == 1:
            return tied[0]
        return tied[ctx.rng.randrange(len(tied))]

    def vc_requests(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        return self.idle_requests(ctx, direction)


class ParentDbarFine(ParentDbar):
    name = "dbar-fine"

    def select_port(
        self, ctx: RouteContext, candidates: Sequence[Direction]
    ) -> Direction:
        scored = []
        for d in candidates:
            view = ctx.outputs[d]
            idle = (view.free & view.adaptive).bit_count()
            uncongested = idle >= ctx.congestion_threshold
            scored.append(((uncongested, view.free_credit_total(), idle), d))
        best = max(score for score, _ in scored)
        tied = [d for score, d in scored if score == best]
        if len(tied) == 1:
            return tied[0]
        return tied[ctx.rng.randrange(len(tied))]


class ParentDor(ParentHelpers, DorRouting):
    def select_output(self, ctx: RouteContext) -> Direction:
        return ctx.mesh.dor_direction(ctx.current, ctx.destination)

    def vc_requests_at(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        if direction is Direction.LOCAL:
            return self.eject_requests(ctx)
        if ctx.mesh.num_vc_classes > 1:
            view = ctx.outputs[direction]
            cls = ctx.mesh.wrap_vc_class(
                ctx.current, ctx.destination, direction
            )
            half = (1 << ctx.num_vcs // 2) - 1
            idle = view.free & view.adaptive & (half if cls == 0 else ~half)
            return [VcRequest(direction, idle, Priority.LOW)] if idle else []
        return self.idle_requests(ctx, direction)


class ParentOddEven(ParentHelpers, OddEvenRouting):
    """``allowed_directions`` (Chiu's ROUTE) is inherited: it did not
    change."""

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
        if len(candidates) == 1:
            return candidates[0]
        outputs = ctx.outputs
        scored = [
            ((outputs[d].free & outputs[d].adaptive).bit_count(), d)
            for d in candidates
        ]
        best = max(score for score, _ in scored)
        tied = [d for score, d in scored if score == best]
        if len(tied) == 1:
            return tied[0]
        return tied[ctx.rng.randrange(len(tied))]


class ParentXordet(ParentHelpers, XordetOverlay):
    def select_output(self, ctx: RouteContext) -> Direction:
        if ctx.current == ctx.destination:
            return Direction.LOCAL
        return self._select_direction(ctx)

    def vc_requests_at(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        if direction is Direction.LOCAL:
            return self.eject_requests(ctx)
        view = ctx.outputs[direction]
        usable = bits(view.adaptive)
        mapped = 1 << usable[
            xordet_vc(ctx.mesh, ctx.destination, len(usable))
        ]
        requests: list[VcRequest] = []
        if view.free & mapped:
            requests.append(VcRequest(direction, mapped, Priority.LOW))
        if self.uses_escape:
            requests.extend(self.escape_request(ctx))
        return requests

    def _select_direction(self, ctx: RouteContext) -> Direction:
        base = self.base
        if isinstance(base, DuatoAdaptiveRouting):
            candidates = ctx.mesh.minimal_directions(
                ctx.current, ctx.destination
            )
            if ctx.dead_ports:
                candidates = self.live_candidates(ctx, candidates)
            if len(candidates) == 1:
                return candidates[0]
            return base.select_port(ctx, candidates)
        if isinstance(base, OddEvenRouting):
            candidates = base.allowed_directions(
                ctx.mesh, ctx.current, ctx.destination, ctx.source
            )
            if ctx.dead_ports:
                candidates = self.live_candidates(ctx, candidates)
            return base._select_port(ctx, candidates)
        return ctx.mesh.dor_direction(ctx.current, ctx.destination)


_PARENT_BASES = {
    "dor": ParentDor,
    "oddeven": ParentOddEven,
    "dbar": ParentDbar,
    "dbar-fine": ParentDbarFine,
    "footprint": ParentFootprint,
}


def create_parent(name: str) -> RoutingAlgorithm:
    base, _, overlay = name.partition("+")
    algorithm = _PARENT_BASES[base]()
    return ParentXordet(algorithm) if overlay else algorithm


def test_every_registry_algorithm_has_its_parent():
    for name in available_algorithms():
        live, parent = create_routing(name), create_parent(name)
        assert parent.name == live.name
        assert parent.uses_escape == live.uses_escape
        assert parent.topologies == live.topologies
        # The oracle states its own request generation, all of it.
        for method in ("select_output", "vc_requests_at", "escape_request"):
            assert getattr(type(parent), method) is not getattr(
                type(live), method
            )


# ----------------------------------------------------------------------
# Drawn local state
# ----------------------------------------------------------------------
VC_STATES = ("free", "stale", "fresh", "busy", "draining")


def _flush_one(router: Router, direction: Direction, vc: int) -> None:
    """Send a one-flit packet's tail on ``vc`` and put it on the link."""
    (flit,) = Packet(src=0, dst=0, size=1, creation_time=0).flits()
    send(router, direction, vc, flit)
    router.link_traversal()


def _drive(
    router: Router, states: dict[Direction, dict[int, tuple[str, int]]]
) -> None:
    """Bring the router's output ports to the drawn per-VC states through
    its stage methods: ``stale`` VCs are released before an allocation
    round ends (free, last owner remembered, not fresh), the others
    after."""

    def release(direction: Direction, vc: int, owner: int) -> None:
        port = router.output_ports[direction]
        port.allocate(vc, owner)
        _flush_one(router, direction, vc)  # non-atomic: released here
        if port.atomic_realloc:
            router.receive_credit(direction, vc)

    for direction, per_vc in states.items():
        for vc, (state, owner) in per_vc.items():
            if state == "stale":
                release(direction, vc, owner)
    router.clear_fresh_only()
    for direction, per_vc in states.items():
        port = router.output_ports[direction]
        for vc, (state, owner) in per_vc.items():
            if state == "fresh":
                release(direction, vc, owner)
            elif state == "busy":
                port.allocate(vc, owner)
            elif state == "draining":
                # Atomic reallocation holds the VC until the credit
                # returns; without it the tail's departure already freed
                # the VC.
                port.allocate(vc, owner)
                _flush_one(router, direction, vc)
    for port in router.output_ports.values():
        assert port.consistency_violation() is None


@st.composite
def head_evaluation(draw):
    name = draw(st.sampled_from(available_algorithms()))
    live = create_routing(name)
    topology = draw(st.sampled_from(live.topologies))
    mesh = create_topology(
        topology, draw(st.integers(2, 5)), draw(st.integers(2, 5))
    )
    nodes = st.integers(0, mesh.num_nodes - 1)
    cur, dst, src = draw(nodes), draw(nodes), draw(nodes)
    # Odd-Even's ROUTE is only total for sources it could have come from.
    assume(live.allowed_directions(mesh, cur, dst, src))
    num_vcs = draw(st.integers(4, 6))
    owners = st.one_of(st.just(dst), nodes)  # footprints must be likely

    states = {
        d: {
            vc: (draw(st.sampled_from(VC_STATES)), draw(owners))
            for vc in range(num_vcs)
        }
        for d in mesh.router_ports(cur)
    }
    config = SimulationConfig(
        width=mesh.width,
        height=mesh.height,
        topology=topology,
        routing=name,
        num_vcs=num_vcs,
        vc_buffer_depth=2,
        output_buffer_depth=2,
        internal_speedup=1,
    )
    routers = []
    for _ in range(2):
        router = Router(cur, mesh, config, live, random.Random(0))
        _drive(router, states)
        routers.append(router)
    seed = draw(st.integers(0, 10_000))
    shared = dict(
        mesh=mesh,
        current=cur,
        destination=dst,
        source=src,
        input_direction=Direction.LOCAL,
        num_vcs=num_vcs,
        congestion_threshold=draw(st.integers(1, num_vcs)),
        footprint_vc_limit=draw(st.one_of(st.none(), st.integers(1, 3))),
        dead_ports=draw(st.one_of(st.just(0), st.integers(0, 15))),
    )
    contexts = [
        RouteContext(
            outputs=router.output_ports, rng=random.Random(seed), **shared
        )
        for router in routers
    ]
    return name, live, contexts


@given(head_evaluation())
@settings(max_examples=400, deadline=None)
def test_one_pass_equals_the_parent_composition(case):
    name, live, (ctx, parent_ctx) = case
    parent = create_parent(name)

    # Route computation: the same port, the same draws.
    committed = live.select_output(ctx)
    assert committed is parent.select_output(parent_ctx)
    assert ctx.rng.getstate() == parent_ctx.rng.getstate()

    # Request generation, at every port the head may have committed to
    # (a commitment outlives the state it was made in).
    cur, dst = ctx.current, ctx.destination
    directions = {
        committed,
        *live.allowed_directions(ctx.mesh, cur, dst, ctx.source),
        *ctx.mesh.minimal_directions(cur, dst),
    }
    for direction in sorted(directions):
        if (direction is Direction.LOCAL) != (cur == dst):
            continue
        state = ctx.rng.getstate()
        records = live.vc_requests_at(ctx, direction)
        expected = parent.vc_requests_at(parent_ctx, direction)
        assert all(type(record) is tuple for record in records)
        assert all(type(record) is VcRequest for record in expected)
        assert records == [tuple(record) for record in expected]
        for (d, mask, priority), named in zip(records, expected):
            assert d is named.direction and priority is named.priority
            assert mask and bits(mask) == named.vcs
        assert ctx.rng.getstate() == state == parent_ctx.rng.getstate()
