"""Unit tests for Odd-Even turn-model routing, including turn legality."""

import itertools

import pytest

from repro.routing.oddeven import OddEvenRouting
from repro.routing.requests import bits
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction

from tests.conftest import FakeOutputView, make_context


@pytest.fixture
def algo():
    return OddEvenRouting()


@pytest.fixture
def mesh():
    return Mesh2D(8)


def test_flags(algo):
    assert not algo.uses_escape
    assert not algo.atomic_vc_reallocation


def test_directions_are_minimal(algo, mesh):
    for src, dst in itertools.product(range(16), range(16)):
        if src == dst:
            continue
        allowed = algo.allowed_directions(mesh, src, dst, src)
        minimal = mesh.minimal_directions(src, dst)
        assert allowed, f"no productive direction from {src} to {dst}"
        assert set(allowed) <= set(minimal)


def test_routes_always_reach_destination(algo, mesh):
    """Every greedy walk over allowed directions is minimal and complete."""
    for src in range(mesh.num_nodes):
        for dst in range(mesh.num_nodes):
            if src == dst:
                continue
            node = src
            for _ in range(mesh.hop_distance(src, dst)):
                dirs = algo.allowed_directions(mesh, node, dst, src)
                assert dirs
                node = mesh.neighbor(node, dirs[0])
            assert node == dst


def _walk_all_paths(algo, mesh, src, dst):
    """Enumerate every (node, turn) pair reachable via allowed directions."""
    turns = set()
    stack = [(src, None)]
    seen = set()
    while stack:
        node, came_from = stack.pop()
        if node == dst:
            continue
        for d in algo.allowed_directions(mesh, node, dst, src):
            if came_from is not None and came_from is not d:
                turns.add((node, came_from, d))
            nxt = mesh.neighbor(node, d)
            state = (nxt, d)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return turns


def test_odd_even_turn_rules(algo, mesh):
    """No EN/ES turns at even columns; no NW/SW turns at odd columns."""
    east = Direction.EAST
    west = Direction.WEST
    vertical = (Direction.NORTH, Direction.SOUTH)
    for src in range(0, mesh.num_nodes, 3):
        for dst in range(0, mesh.num_nodes, 5):
            if src == dst:
                continue
            for node, frm, to in _walk_all_paths(algo, mesh, src, dst):
                x, _ = mesh.coords(node)
                if frm is east and to in vertical:
                    assert x % 2 == 1, (
                        f"EN/ES turn at even column {x} (node {node})"
                    )
                if frm in vertical and to is west:
                    assert x % 2 == 0, (
                        f"NW/SW turn at odd column {x} (node {node})"
                    )


def test_port_selection_prefers_more_idle(algo):
    mesh = Mesh2D(4)
    # From 5 to 15: east and south both allowed at odd column x=1.
    outputs = {d: FakeOutputView(escape_vc=None) for d in mesh.router_ports(5)}
    outputs[Direction.EAST] = FakeOutputView(escape_vc=None, idle=[0])
    outputs[Direction.SOUTH] = FakeOutputView(escape_vc=None, idle=[0, 1, 2])
    ctx = make_context(mesh, 5, 15, outputs)
    allowed = algo.allowed_directions(mesh, 5, 15, 5)
    if Direction.SOUTH in allowed and Direction.EAST in allowed:
        assert algo.select_output(ctx) is Direction.SOUTH


def test_ejects_at_destination(algo):
    mesh = Mesh2D(4)
    outputs = {d: FakeOutputView(escape_vc=None) for d in mesh.router_ports(5)}
    ctx = make_context(mesh, 5, 5, outputs)
    assert algo.select_output(ctx) is Direction.LOCAL


def test_all_vcs_usable(algo):
    mesh = Mesh2D(4)
    outputs = {d: FakeOutputView(escape_vc=None) for d in mesh.router_ports(0)}
    ctx = make_context(mesh, 0, 3, outputs)
    ((_direction, mask, _priority),) = algo.vc_requests_at(
        ctx, Direction.EAST
    )
    assert set(bits(mask)) == {0, 1, 2, 3}
