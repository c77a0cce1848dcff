"""Unit tests for DBAR routing (and its fine-grained ablation variant)."""

import pytest

from repro.routing.dbar import DbarFineRouting, DbarRouting
from repro.routing.requests import Priority, bits
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction

from tests.conftest import FakeOutputView, make_context


@pytest.fixture
def mesh():
    return Mesh2D(4)


DST = 10


def outputs_for(mesh, node):
    return {d: FakeOutputView() for d in mesh.router_ports(node)}


def test_flags():
    algo = DbarRouting()
    assert algo.uses_escape
    assert algo.atomic_vc_reallocation


def test_fully_adaptive(mesh):
    algo = DbarRouting()
    assert set(algo.allowed_directions(mesh, 0, DST, 0)) == {
        Direction.EAST,
        Direction.SOUTH,
    }


def test_prefers_uncongested_port(mesh):
    algo = DbarRouting()
    outputs = outputs_for(mesh, 0)
    outputs[Direction.EAST] = FakeOutputView(idle=[1])  # below threshold
    outputs[Direction.SOUTH] = FakeOutputView(idle=[1, 2, 3])
    ctx = make_context(mesh, 0, DST, outputs, congestion_threshold=2)
    assert algo.select_output(ctx) is Direction.SOUTH


def test_tie_breaks_randomly_within_class(mesh):
    algo = DbarRouting()
    outputs = outputs_for(mesh, 0)
    outputs[Direction.EAST] = FakeOutputView(idle=[1, 2, 3])
    outputs[Direction.SOUTH] = FakeOutputView(idle=[1, 2])  # both uncongested
    seen = set()
    for seed in range(30):
        ctx = make_context(
            mesh, 0, DST, outputs, congestion_threshold=2, seed=seed
        )
        seen.add(algo.select_output(ctx))
    assert seen == {Direction.EAST, Direction.SOUTH}


def test_oblivious_vc_selection_flat_priority(mesh):
    algo = DbarRouting()
    outputs = outputs_for(mesh, 0)
    outputs[Direction.EAST] = FakeOutputView(idle=[1, 3], owners={2: DST})
    ctx = make_context(mesh, 0, DST, outputs)
    reqs = [
        r
        for r in algo.vc_requests_at(ctx, Direction.EAST)
        if r[2] is not Priority.LOWEST
    ]
    # No footprint awareness: just the free VCs, all LOW — one record.
    ((_direction, mask, priority),) = reqs
    assert list(bits(mask)) == [1, 3]
    assert priority is Priority.LOW


def test_escape_request_present(mesh):
    algo = DbarRouting()
    outputs = outputs_for(mesh, 0)
    ctx = make_context(mesh, 0, DST, outputs)
    reqs = algo.vc_requests_at(ctx, Direction.SOUTH)
    escape = [r for r in reqs if r[2] is Priority.LOWEST]
    assert len(escape) == 1
    # Escape uses the DOR direction (EAST from 0 to 10) and VC0.
    direction, mask, _priority = escape[0]
    assert direction is Direction.EAST
    assert bits(mask) == (0,)


def test_fine_variant_uses_credit_totals(mesh):
    algo = DbarFineRouting()
    outputs = outputs_for(mesh, 0)
    outputs[Direction.EAST] = FakeOutputView(idle=[1, 2], credits=4)
    outputs[Direction.SOUTH] = FakeOutputView(idle=[1, 2], credits=9)
    ctx = make_context(mesh, 0, DST, outputs, congestion_threshold=2)
    assert algo.select_output(ctx) is Direction.SOUTH


def test_fine_variant_counts_only_free_adaptive_vcs(mesh):
    # EAST has more credits, but only one idle adaptive VC: congested.
    # Its free escape VC and its busy adaptive VCs do not count.
    algo = DbarFineRouting()
    outputs = outputs_for(mesh, 0)
    outputs[Direction.EAST] = FakeOutputView(idle=[1], credits=9)
    outputs[Direction.SOUTH] = FakeOutputView(idle=[1, 2, 3], credits=4)
    ctx = make_context(mesh, 0, DST, outputs, congestion_threshold=2)
    assert algo.select_output(ctx) is Direction.SOUTH
