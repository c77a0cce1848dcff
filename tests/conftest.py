"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.router.flit import Packet
from repro.router.router import Router
from repro.router.vcstate import VcState
from repro.routing.registry import create_routing
from repro.sim.config import SimulationConfig
from repro.sim.rng import RngStreams
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction


def mask_of(vcs) -> int:
    """The VC set ``vcs`` as a mask (bit v = VC v)."""
    mask = 0
    for v in vcs:
        mask |= 1 << v
    return mask


def make_router(node=5, routing="footprint", num_vcs=4, **cfg) -> Router:
    """Router ``node`` of a 4x4 mesh (node 5 is interior: five ports)."""
    config = SimulationConfig(
        width=4, num_vcs=num_vcs, routing=routing, traffic="uniform", **cfg
    )
    return Router(
        node,
        Mesh2D(4),
        config,
        create_routing(routing),
        RngStreams(9).stream(f"router/{node}"),
    )


def waiting_head(dst, index=0, direction=Direction.WEST):
    """Input VC ``index`` of port ``direction`` with a one-flit packet to
    ``dst`` waiting for VC allocation, as a router's buffer write leaves
    it (each call builds its own router)."""
    router = make_router(num_vcs=max(4, index + 1))
    head = Packet(src=0, dst=dst, size=1, creation_time=0).flits()[0]
    router.receive_flit(direction, index, head)
    return router.input_vcs[direction][index]


def hold_grant(router, via, in_vc, direction, out_vc):
    """Give idle input VC ``in_vc`` of port ``via`` the registers a VC
    grant of downstream VC ``out_vc`` at ``direction`` leaves, so the
    flits it receives next cross the switch toward that VC (for tests
    of the flit path, where VC allocation is not under test)."""
    ivc = router.input_vcs[via][in_vc]
    assert ivc.state is VcState.IDLE and not ivc.fifo
    ivc.state, ivc.out_direction, ivc.out_vc = VcState.ACTIVE, direction, out_vc
    return ivc


def send(router, direction, out_vc, *flits, via=Direction.LOCAL, in_vc=0):
    """Move ``flits`` through ``router`` toward downstream VC ``out_vc``
    at ``direction`` with the stage methods: each is written into an
    input VC holding that grant and gets a switch cycle of its own; the
    ones that cross wait in the staging FIFO for ``link_traversal``."""
    hold_grant(router, via, in_vc, direction, out_vc)
    for flit in flits:
        router.receive_flit(via, in_vc, flit)
        router.switch_traversal()


@pytest.fixture
def mesh4() -> Mesh2D:
    return Mesh2D(4)


@pytest.fixture
def mesh8() -> Mesh2D:
    return Mesh2D(8)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def small_config() -> SimulationConfig:
    """A fast 4x4 configuration for end-to-end tests."""
    return SimulationConfig(
        width=4,
        num_vcs=4,
        routing="footprint",
        traffic="uniform",
        injection_rate=0.1,
        warmup_cycles=50,
        measure_cycles=100,
        drain_cycles=1000,
        seed=7,
    )


class FakeOutputView:
    """A scriptable OutputPortView for routing-algorithm unit tests.

    Scripted with VC lists; exposes the mask view the algorithms read.
    """

    def __init__(
        self,
        num_vcs: int = 4,
        escape_vc: int | None = 0,
        idle: list[int] | None = None,
        established: list[int] | None = None,
        owners: dict[int, int] | None = None,
        fresh: set[int] | None = None,
        credits: int = 0,
    ) -> None:
        self.num_vcs = num_vcs
        self.escape_vc = escape_vc
        self.adaptive = mask_of(v for v in range(num_vcs) if v != escape_vc)
        self._idle = self.adaptive if idle is None else mask_of(idle)
        self.fresh = mask_of(fresh or ()) & self._idle
        if established is not None:
            assert mask_of(established) == self._idle & ~self.fresh
        self._owners = dict(owners or {})
        self._credits = credits
        #: Tests flip this to script a busy escape VC.
        self.escape_free = True

    @property
    def free(self):
        if self.escape_vc is not None and self.escape_free:
            return self._idle | 1 << self.escape_vc
        return self._idle

    def _owned_by(self, dst):
        return mask_of(v for v, owner in self._owners.items() if owner == dst)

    def footprint_mask(self, dst):
        return self._owned_by(dst) & self.adaptive & ~self._idle

    def fresh_footprint_mask(self, dst):
        return self._owned_by(dst) & self.adaptive & self.fresh

    def grantable(self, vc):
        return bool((self.free >> vc) & 1)

    def free_credit_total(self):
        return self._credits


@pytest.fixture
def fake_view_factory():
    return FakeOutputView


def make_context(
    mesh: Mesh2D,
    current: int,
    destination: int,
    outputs,
    source: int | None = None,
    num_vcs: int = 4,
    congestion_threshold: int = 2,
    footprint_vc_limit: int | None = None,
    seed: int = 99,
    dead_ports: int = 0,
):
    """Build a RouteContext for routing-algorithm unit tests."""
    from repro.routing.base import RouteContext

    return RouteContext(
        mesh=mesh,
        current=current,
        destination=destination,
        source=source if source is not None else current,
        outputs=outputs,
        num_vcs=num_vcs,
        congestion_threshold=congestion_threshold,
        footprint_vc_limit=footprint_vc_limit,
        rng=random.Random(seed),
        dead_ports=dead_ports,
    )



def per_vc(requests):
    """Expand group-form VC requests into ``(direction, vc, priority)``
    triples, in allocator candidate order — the paper's individual
    ``ADD(P, v, pri)`` calls."""
    from repro.routing.requests import bits

    for _direction, mask, _priority in requests:
        assert mask, "empty request groups must not be emitted"
    return [
        (direction, v, priority)
        for direction, mask, priority in requests
        for v in bits(mask)
    ]
