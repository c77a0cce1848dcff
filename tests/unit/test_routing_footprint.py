"""Unit tests for the Footprint routing algorithm (Algorithm 1)."""

import pytest

from repro.routing.footprint import FootprintRouting
from repro.routing.requests import Priority, bits
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction

from tests.conftest import FakeOutputView, make_context, per_vc


@pytest.fixture
def algo():
    return FootprintRouting()


@pytest.fixture
def mesh():
    return Mesh2D(4)


def outputs_for(mesh, node, view_factory):
    """A full output-view map with default (all-idle) state."""
    return {d: view_factory() for d in mesh.router_ports(node)}


DST = 10  # from node 0: minimal ports EAST and SOUTH


class TestProperties:
    def test_flags(self, algo):
        assert algo.uses_escape
        assert algo.atomic_vc_reallocation
        assert algo.name == "footprint"

    def test_fully_adaptive_directions(self, algo, mesh):
        dirs = algo.allowed_directions(mesh, 0, DST, 0)
        assert set(dirs) == {Direction.EAST, Direction.SOUTH}

    def test_eject_at_destination(self, algo, mesh):
        outputs = outputs_for(mesh, DST, FakeOutputView)
        ctx = make_context(mesh, DST, DST, outputs)
        assert algo.select_output(ctx) is Direction.LOCAL
        reqs = algo.vc_requests_at(ctx, Direction.LOCAL)
        assert all(
            direction is Direction.LOCAL for direction, _mask, _pri in reqs
        )
        assert reqs  # free sink VCs exist


class TestPortSelection:
    """Step 2: idle count, then (gated) footprint count, then random."""

    def test_more_idle_wins(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(idle=[1, 2, 3])
        outputs[Direction.SOUTH] = FakeOutputView(idle=[1])
        ctx = make_context(mesh, 0, DST, outputs)
        assert algo.select_output(ctx) is Direction.EAST

    def test_footprint_breaks_tie_under_congestion(self, algo, mesh):
        # Both ports congested (idle below threshold); SOUTH carries a
        # footprint for the destination.
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(idle=[1])
        outputs[Direction.SOUTH] = FakeOutputView(idle=[1], owners={2: DST})
        ctx = make_context(mesh, 0, DST, outputs, congestion_threshold=2)
        assert algo.select_output(ctx) is Direction.SOUTH

    def test_footprint_tiebreak_gated_off_without_congestion(
        self, algo, mesh
    ):
        # Idle counts tie at/above the threshold: §3.2 says footprints are
        # not considered; selection falls through to the random tie-break.
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(idle=[1, 2, 3])
        outputs[Direction.SOUTH] = FakeOutputView(
            idle=[1, 2, 3], owners={0: DST}
        )
        choices = set()
        for seed in range(30):
            ctx = make_context(
                mesh, 0, DST, outputs, congestion_threshold=2, seed=seed
            )
            choices.add(algo.select_output(ctx))
        assert choices == {Direction.EAST, Direction.SOUTH}

    def test_single_minimal_port(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        ctx = make_context(mesh, 0, 3, outputs)  # same row: EAST only
        assert algo.select_output(ctx) is Direction.EAST


class TestVcRequestRegimes:
    """Step 3: the three congestion regimes of Algorithm 1."""

    def test_uncongested_flat_low(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(idle=[1, 2, 3])
        ctx = make_context(mesh, 0, DST, outputs, congestion_threshold=2)
        ((_direction, mask, priority),) = algo.vc_requests(
            ctx, Direction.EAST
        )
        assert list(bits(mask)) == [1, 2, 3]
        assert priority is Priority.LOW

    def test_intermediate_established_highest(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(idle=[2], established=[2])
        ctx = make_context(mesh, 0, DST, outputs, congestion_threshold=2)
        reqs = algo.vc_requests(ctx, Direction.EAST)
        assert per_vc(reqs) == [(Direction.EAST, 2, Priority.HIGHEST)]

    def test_intermediate_fresh_footprint_at_high(self, algo, mesh):
        # VC 3 freed this cycle and last carried traffic to DST.
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(
            idle=[2, 3], established=[2], owners={3: DST}, fresh={3}
        )
        ctx = make_context(mesh, 0, DST, outputs, congestion_threshold=2)
        reqs = algo.vc_requests(ctx, Direction.EAST)
        # One record per priority class, most urgent first.
        assert per_vc(reqs) == [
            (Direction.EAST, 2, Priority.HIGHEST),
            (Direction.EAST, 3, Priority.HIGH),
        ]
        assert len(reqs) == 2

    def test_intermediate_fresh_other_at_low(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(
            idle=[2, 3], established=[2], owners={3: 99}, fresh={3}
        )
        ctx = make_context(mesh, 0, DST, outputs, congestion_threshold=2)
        reqs = algo.vc_requests(ctx, Direction.EAST)
        assert per_vc(reqs) == [
            (Direction.EAST, 2, Priority.HIGHEST),
            (Direction.EAST, 3, Priority.LOW),
        ]

    def test_saturated_with_busy_footprint_waits(self, algo, mesh):
        # No idle VCs, footprint busy elsewhere: wait — no requests at all.
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(
            idle=[], established=[], owners={1: DST}
        )
        ctx = make_context(mesh, 0, DST, outputs)
        assert algo.vc_requests(ctx, Direction.EAST) == []

    def test_saturated_reclaims_freed_footprint_at_high(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(
            idle=[1], established=[], owners={1: DST}, fresh={1}
        )
        ctx = make_context(mesh, 0, DST, outputs)
        reqs = algo.vc_requests(ctx, Direction.EAST)
        assert per_vc(reqs) == [(Direction.EAST, 1, Priority.HIGH)]

    def test_saturated_does_not_take_other_flows_freed_vcs(self, algo, mesh):
        # A footprint exists (busy); VC 2 freed but belonged to another
        # flow: the packet must NOT claim it — that is the regulation.
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(
            idle=[2], established=[], owners={1: DST, 2: 99}, fresh={2}
        )
        ctx = make_context(mesh, 0, DST, outputs)
        assert algo.vc_requests(ctx, Direction.EAST) == []

    def test_saturated_no_footprint_takes_any_freed_vc(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(
            idle=[2], established=[], owners={2: 99}, fresh={2}
        )
        ctx = make_context(mesh, 0, DST, outputs)
        reqs = algo.vc_requests(ctx, Direction.EAST)
        assert per_vc(reqs) == [(Direction.EAST, 2, Priority.LOW)]


class TestEscapeHandling:
    def test_escape_requested_at_lowest(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        ctx = make_context(mesh, 0, DST, outputs)
        reqs = algo.vc_requests_at(ctx, Direction.EAST)
        escape = [r for r in reqs if r[2] is Priority.LOWEST]
        assert len(escape) == 1
        direction, mask, _priority = escape[0]
        assert bits(mask) == (0,)
        # Escape rides the DOR port (EAST for 0 -> 10).
        assert direction is Direction.EAST

    def test_escape_suppressed_while_waiting_on_footprint(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(
            idle=[], established=[], owners={1: DST}
        )
        ctx = make_context(mesh, 0, DST, outputs)
        assert algo.vc_requests_at(ctx, Direction.EAST) == []

    def test_escape_present_when_no_footprint(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(idle=[], established=[])
        ctx = make_context(mesh, 0, DST, outputs)
        reqs = algo.vc_requests_at(ctx, Direction.EAST)
        assert [priority for _d, _m, priority in reqs] == [Priority.LOWEST]


class TestFootprintVcLimit:
    def test_limit_blocks_new_vcs(self, algo, mesh):
        # DST already owns 2 busy VCs; with limit 2 the packet may only
        # re-claim freed footprint VCs, not plain idle ones.
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(
            idle=[3], established=[3], owners={1: DST, 2: DST}
        )
        ctx = make_context(
            mesh, 0, DST, outputs, footprint_vc_limit=2
        )
        assert algo.vc_requests(ctx, Direction.EAST) == []

    def test_below_limit_unrestricted(self, algo, mesh):
        outputs = outputs_for(mesh, 0, FakeOutputView)
        outputs[Direction.EAST] = FakeOutputView(
            idle=[3], established=[3], owners={1: DST}
        )
        ctx = make_context(
            mesh, 0, DST, outputs, footprint_vc_limit=2
        )
        assert algo.vc_requests(ctx, Direction.EAST) != []
