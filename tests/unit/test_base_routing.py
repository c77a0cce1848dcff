"""Unit tests for shared RoutingAlgorithm helpers."""

import pytest

from repro.routing.dor import DorRouting
from repro.routing.footprint import FootprintRouting
from repro.routing.requests import Priority, bits
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction

from tests.conftest import FakeOutputView, make_context


@pytest.fixture
def mesh():
    return Mesh2D(4)


class TestEjectRequests:
    def test_targets_free_local_vcs(self, mesh):
        algo = DorRouting()
        outputs = {
            d: FakeOutputView(escape_vc=None)
            for d in mesh.router_ports(5)
        }
        outputs[Direction.LOCAL] = FakeOutputView(escape_vc=None, idle=[1, 3])
        ctx = make_context(mesh, 5, 5, outputs)
        ((direction, mask, priority),) = algo.eject_requests(ctx)
        assert direction is Direction.LOCAL
        assert list(bits(mask)) == [1, 3]
        assert priority is Priority.LOW

    def test_empty_when_sink_full(self, mesh):
        algo = DorRouting()
        outputs = {
            d: FakeOutputView(escape_vc=None, idle=[])
            for d in mesh.router_ports(5)
        }
        ctx = make_context(mesh, 5, 5, outputs)
        assert algo.eject_requests(ctx) == []


class TestEscapeRequest:
    def test_rides_dor_port(self, mesh):
        algo = FootprintRouting()
        outputs = {d: FakeOutputView() for d in mesh.router_ports(5)}
        # From 5 to 7: DOR port is EAST.
        ctx = make_context(mesh, 5, 7, outputs)
        direction, mask, priority = algo.escape_request(ctx)
        assert direction is Direction.EAST
        assert bits(mask) == (0,)
        assert priority is Priority.LOWEST

    def test_absent_when_escape_busy(self, mesh):
        algo = FootprintRouting()
        outputs = {d: FakeOutputView() for d in mesh.router_ports(5)}
        outputs[Direction.EAST].escape_free = False
        ctx = make_context(mesh, 5, 7, outputs)
        assert algo.escape_request(ctx) is None

    def test_absent_without_escape_vc(self, mesh):
        algo = DorRouting()
        outputs = {
            d: FakeOutputView(escape_vc=None)
            for d in mesh.router_ports(5)
        }
        ctx = make_context(mesh, 5, 7, outputs)
        assert algo.escape_request(ctx) is None


class TestRouteComposition:
    def test_route_equals_two_stage_composition(self, mesh):
        algo = DorRouting()
        outputs = {
            d: FakeOutputView(escape_vc=None)
            for d in mesh.router_ports(0)
        }
        ctx = make_context(mesh, 0, 3, outputs)
        composed = algo.vc_requests_at(ctx, algo.select_output(ctx))
        assert algo.route(ctx) == composed

    def test_repr(self):
        assert "DorRouting" in repr(DorRouting())
