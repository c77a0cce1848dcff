"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.sim.config import SimulationConfig
from repro.topology.mesh import Mesh2D


def mask_of(vcs) -> int:
    """The VC set ``vcs`` as a mask (bit v = VC v)."""
    mask = 0
    for v in vcs:
        mask |= 1 << v
    return mask


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
):
    """Build a RouteContext for routing-algorithm unit tests."""
    from repro.routing.base import RouteContext
    from repro.topology.ports import Direction

    return RouteContext(
        mesh=mesh,
        current=current,
        destination=destination,
        source=source if source is not None else current,
        input_direction=Direction.LOCAL,
        outputs=outputs,
        num_vcs=num_vcs,
        congestion_threshold=congestion_threshold,
        footprint_vc_limit=footprint_vc_limit,
        rng=random.Random(seed),
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
