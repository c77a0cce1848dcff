"""Shared machinery for Duato-based minimal fully-adaptive routing.

Duato's theory provides deadlock freedom for fully-adaptive routing by
reserving one *escape* VC per physical channel (VC0 here) that is routed by
a deadlock-free base function (dimension-order).  A packet may wait on any
adaptive VC of any minimal port, but an escape request along the DOR port is
always present at the lowest priority so that a blocked packet eventually
drains through the acyclic escape subnetwork.

Both DBAR and Footprint derive from :class:`DuatoAdaptiveRouting`; they
differ only in the output-port selection policy and the VC request
priorities, which is exactly the delta the paper describes.

A consequence of Duato's protocol, noted in §4.2.1 of the paper, is atomic
VC reallocation: a downstream VC cannot be re-allocated until the credit for
the previous packet's tail flit has returned.  Both subclasses inherit
``atomic_vc_reallocation = True``.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from repro.routing.base import RouteContext, RoutingAlgorithm
from repro.routing.requests import VcRequest
from repro.topology.base import _MINIMAL_ANSWERS, Topology
from repro.topology.ports import Direction

_LOCAL = Direction.LOCAL


class DuatoAdaptiveRouting(RoutingAlgorithm):
    """Base class for minimal fully-adaptive routing with escape VCs."""

    uses_escape = True
    atomic_vc_reallocation = True

    def select_output(self, ctx: RouteContext) -> Direction:
        current = ctx.current
        dst = ctx.destination
        if current == dst:
            return _LOCAL
        # minimal_directions(current, dst), read from the grid's
        # one-byte pair table (see escape_request).
        mesh = ctx.mesh
        candidates = _MINIMAL_ANSWERS[
            mesh._min_dirs[current * mesh.num_nodes + dst]
            or mesh._tabulate(current, dst)
        ]
        if ctx.dead_ports:
            candidates = self.live_candidates(ctx, candidates)
        if len(candidates) == 1:
            return candidates[0]
        return self.select_port(ctx, candidates)

    def vc_requests_at(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        if direction is _LOCAL:
            return self.eject_requests(ctx)
        requests = self.vc_requests(ctx, direction)
        # The escape request is always present (Algorithm 1 line 45), on
        # the DOR port regardless of the committed adaptive port.
        escape = self.escape_request(ctx)
        if escape is not None:
            requests.append(escape)
        return requests

    @abc.abstractmethod
    def select_port(
        self, ctx: RouteContext, candidates: Sequence[Direction]
    ) -> Direction:
        """Choose among the (two) minimal candidate ports."""

    @abc.abstractmethod
    def vc_requests(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        """Adaptive-VC requests at the selected port."""

    def allowed_directions(
        self, mesh: Topology, current: int, destination: int, source: int
    ) -> list[Direction]:
        if current == destination:
            return [Direction.LOCAL]
        return list(mesh.minimal_directions(current, destination))
