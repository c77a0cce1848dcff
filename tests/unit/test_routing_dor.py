"""Unit tests for dimension-order routing."""

import pytest

from repro.routing.dor import DorRouting
from repro.routing.requests import Priority, bits
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction

from tests.conftest import FakeOutputView, make_context


@pytest.fixture
def algo():
    return DorRouting()


@pytest.fixture
def mesh():
    return Mesh2D(4)


def test_flags(algo):
    assert not algo.uses_escape
    assert not algo.atomic_vc_reallocation


def test_x_before_y(algo, mesh):
    outputs = {d: FakeOutputView(escape_vc=None) for d in mesh.router_ports(0)}
    ctx = make_context(mesh, 0, 10, outputs)
    assert algo.select_output(ctx) is Direction.EAST


def test_y_after_x_resolved(algo, mesh):
    outputs = {d: FakeOutputView(escape_vc=None) for d in mesh.router_ports(2)}
    ctx = make_context(mesh, 2, 10, outputs)
    assert algo.select_output(ctx) is Direction.SOUTH


def test_requests_every_free_vc_flat(algo, mesh):
    outputs = {d: FakeOutputView(escape_vc=None) for d in mesh.router_ports(0)}
    ctx = make_context(mesh, 0, 10, outputs)
    # One record carries the whole flat-priority class.
    ((direction, mask, priority),) = algo.vc_requests_at(ctx, Direction.EAST)
    assert set(bits(mask)) == {0, 1, 2, 3}
    assert priority is Priority.LOW
    assert direction is Direction.EAST


def test_busy_vcs_not_requested(algo, mesh):
    outputs = {d: FakeOutputView(escape_vc=None) for d in mesh.router_ports(0)}
    outputs[Direction.EAST] = FakeOutputView(escape_vc=None, idle=[2])
    ctx = make_context(mesh, 0, 10, outputs)
    ((_direction, mask, _priority),) = algo.vc_requests_at(
        ctx, Direction.EAST
    )
    assert list(bits(mask)) == [2]


def test_no_record_when_every_vc_is_busy(algo, mesh):
    outputs = {d: FakeOutputView(escape_vc=None) for d in mesh.router_ports(0)}
    outputs[Direction.EAST] = FakeOutputView(escape_vc=None, idle=[])
    ctx = make_context(mesh, 0, 10, outputs)
    assert algo.vc_requests_at(ctx, Direction.EAST) == []


def test_allowed_directions_single(algo, mesh):
    assert algo.allowed_directions(mesh, 0, 10, 0) == [Direction.EAST]
    assert algo.allowed_directions(mesh, 9, 9, 0) == [Direction.LOCAL]


def test_full_route_is_deterministic_and_minimal(algo, mesh):
    for src in range(mesh.num_nodes):
        for dst in range(mesh.num_nodes):
            if src == dst:
                continue
            node = src
            hops = 0
            while node != dst:
                d = algo.allowed_directions(mesh, node, dst, src)[0]
                node = mesh.neighbor(node, d)
                hops += 1
                assert hops <= mesh.hop_distance(src, dst)
            assert hops == mesh.hop_distance(src, dst)
