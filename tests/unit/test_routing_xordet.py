"""Unit tests for the XORDET static VC-mapping overlay."""

import pytest

from repro.routing.dbar import DbarRouting
from repro.routing.dor import DorRouting
from repro.routing.oddeven import OddEvenRouting
from repro.routing.requests import Priority, bits
from repro.routing.xordet import XordetOverlay, xordet_vc
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction

from tests.conftest import FakeOutputView, make_context


@pytest.fixture
def mesh():
    return Mesh2D(8)


class TestMapping:
    def test_pure_function_of_destination(self, mesh):
        for dst in range(mesh.num_nodes):
            first = xordet_vc(mesh, dst, 8)
            assert all(xordet_vc(mesh, dst, 8) == first for _ in range(3))

    def test_range(self, mesh):
        for dst in range(mesh.num_nodes):
            for n in (1, 2, 4, 9):
                assert 0 <= xordet_vc(mesh, dst, n) < n

    def test_spreads_destinations(self, mesh):
        """The mapping must not collapse all destinations onto few VCs."""
        n = 8
        buckets = [0] * n
        for dst in range(mesh.num_nodes):
            buckets[xordet_vc(mesh, dst, n)] += 1
        used = sum(1 for b in buckets if b)
        assert used >= n // 2
        assert max(buckets) <= 4 * (mesh.num_nodes // n)


class TestOverlay:
    def test_name_and_flags_follow_base(self):
        overlay = XordetOverlay(DbarRouting())
        assert overlay.name == "dbar+xordet"
        assert overlay.uses_escape
        assert overlay.atomic_vc_reallocation
        plain = XordetOverlay(DorRouting())
        assert plain.name == "dor+xordet"
        assert not plain.uses_escape

    def test_single_vc_requested(self, mesh):
        overlay = XordetOverlay(DorRouting())
        outputs = {
            d: FakeOutputView(escape_vc=None)
            for d in mesh.router_ports(0)
        }
        ctx = make_context(mesh, 0, 9, outputs)
        direction = overlay.select_output(ctx)
        reqs = overlay.vc_requests_at(ctx, direction)
        assert len(reqs) == 1
        _direction, mask, _priority = reqs[0]
        assert bits(mask) == (xordet_vc(mesh, 9, 4),)

    def test_waits_when_mapped_vc_busy(self, mesh):
        overlay = XordetOverlay(DorRouting())
        vc = xordet_vc(mesh, 9, 4)
        idle = [v for v in range(4) if v != vc]
        outputs = {
            d: FakeOutputView(escape_vc=None, idle=idle)
            for d in mesh.router_ports(0)
        }
        ctx = make_context(mesh, 0, 9, outputs)
        assert overlay.vc_requests_at(ctx, Direction.EAST) == []

    def test_adaptive_base_keeps_escape(self, mesh):
        overlay = XordetOverlay(DbarRouting())
        outputs = {d: FakeOutputView() for d in mesh.router_ports(0)}
        ctx = make_context(mesh, 0, 9, outputs)
        direction = overlay.select_output(ctx)
        reqs = overlay.vc_requests_at(ctx, direction)
        priorities = {priority for _d, _m, priority in reqs}
        assert Priority.LOWEST in priorities  # escape survives the overlay
        non_escape = [r for r in reqs if r[2] is not Priority.LOWEST]
        assert len(non_escape) == 1
        _direction, mask, _priority = non_escape[0]
        assert len(bits(mask)) == 1

    def test_port_selection_delegates(self, mesh):
        overlay = XordetOverlay(OddEvenRouting())
        assert overlay.allowed_directions(
            mesh, 0, 9, 0
        ) == OddEvenRouting().allowed_directions(mesh, 0, 9, 0)

    def test_eject_at_destination(self, mesh):
        overlay = XordetOverlay(DorRouting())
        outputs = {
            d: FakeOutputView(escape_vc=None)
            for d in mesh.router_ports(9)
        }
        ctx = make_context(mesh, 9, 9, outputs)
        assert overlay.select_output(ctx) is Direction.LOCAL
        assert overlay.vc_requests_at(ctx, Direction.LOCAL)
