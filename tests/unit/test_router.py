"""Unit tests for the VC router pipeline."""

import pytest

from repro.exceptions import InvariantViolation
from repro.router import router as router_module
from repro.router.flit import Packet
from repro.router.router import BlockingStats
from repro.router.vcstate import VcState
from repro.topology.ports import Direction

from tests.conftest import make_router, send


def head_flit(src=4, dst=6, size=1):
    return Packet(src=src, dst=dst, size=size, creation_time=0).flits()[0]


class TestConstruction:
    def test_ports_match_mesh(self):
        interior = make_router(node=5)
        assert set(interior.input_vcs) == set(interior.output_ports)
        assert len(interior.input_vcs) == 5
        corner = make_router(node=0)
        assert len(corner.input_vcs) == 3

    def test_escape_vc_only_for_duato_algorithms(self):
        fp = make_router(routing="footprint")
        assert fp.output_ports[Direction.EAST].escape_vc == 0
        assert fp.output_ports[Direction.LOCAL].escape_vc is None
        dor = make_router(routing="dor")
        assert dor.output_ports[Direction.EAST].escape_vc is None


class TestPipeline:
    def test_flit_flows_through(self):
        router = make_router(node=5)
        router.receive_flit(Direction.WEST, 1, head_flit(src=4, dst=6))
        assert router.inflight == 1
        router.route_and_allocate()
        ivc = router.input_vcs[Direction.WEST][1]
        assert ivc.state is VcState.ACTIVE
        assert ivc.out_direction is Direction.EAST
        credits = router.switch_traversal()
        assert credits == [(Direction.WEST, 1)]
        sent = router.link_traversal()
        assert len(sent) == 1
        direction, _vc, flit = sent[0]
        assert direction is Direction.EAST
        assert flit.dst == 6
        assert router.inflight == 0

    def test_ejection_at_destination(self):
        router = make_router(node=5)
        router.receive_flit(Direction.WEST, 0, head_flit(src=4, dst=5))
        router.route_and_allocate()
        router.switch_traversal()
        sent = router.link_traversal()
        assert sent[0][0] is Direction.LOCAL

    def test_commitment_held_across_cycles(self):
        router = make_router(node=5)
        # Saturate EAST so the packet cannot win a VC immediately.
        east = router.output_ports[Direction.EAST]
        for v in range(4):
            east.allocate(v, dst=9)
        south = router.output_ports[Direction.SOUTH]
        for v in range(4):
            south.allocate(v, dst=9)
        router.receive_flit(Direction.WEST, 1, head_flit(src=4, dst=10))
        router.route_and_allocate()
        ivc = router.input_vcs[Direction.WEST][1]
        committed = ivc.committed_dir
        assert committed in (Direction.EAST, Direction.SOUTH)
        router.route_and_allocate()
        assert ivc.committed_dir is committed

    def test_quiescent_router_is_cheap(self):
        router = make_router()
        assert router.link_traversal() == []
        assert router.switch_traversal() == []
        router.route_and_allocate()  # must not raise
        assert router.occupancy() == 0

    def test_speedup_allows_two_flits_per_output(self):
        router = make_router(node=5, routing="dor")
        # Two single-flit packets from different inputs to the same output.
        router.receive_flit(Direction.WEST, 0, head_flit(src=4, dst=6))
        router.receive_flit(Direction.NORTH, 0, head_flit(src=1, dst=6))
        # Two VA rounds: the random VC picks may collide in the first.
        router.route_and_allocate()
        router.route_and_allocate()
        credits = router.switch_traversal()
        assert len(credits) == 2
        # The link still drains one flit per cycle.
        assert len(router.link_traversal()) == 1
        assert len(router.link_traversal()) == 1


class TestBlockingStats:
    def test_purity_math(self):
        stats = BlockingStats()
        stats.blocking_events = 4
        stats.busy_vc_samples = 10
        stats.footprint_vc_samples = 4
        assert stats.purity == 0.4
        assert stats.hol_degree == pytest.approx(2.4)

    def test_empty_purity(self):
        assert BlockingStats().purity == 0.0
        assert BlockingStats().hol_degree == 0.0

    def test_merge(self):
        a = BlockingStats()
        a.blocking_events = 1
        a.busy_vc_samples = 2
        b = BlockingStats()
        b.blocking_events = 3
        b.footprint_vc_samples = 5
        a.merge(b)
        assert a.blocking_events == 4
        assert a.busy_vc_samples == 2
        assert a.footprint_vc_samples == 5

    def test_sampling_counts_blocked_packets(self):
        router = make_router(node=5, routing="dor")
        router.enable_blocking_sampling(True)
        east = router.output_ports[Direction.EAST]
        for v in range(4):
            east.allocate(v, dst=6)
        router.receive_flit(Direction.WEST, 1, head_flit(src=4, dst=6))
        router.route_and_allocate()
        assert router.blocking.blocking_events == 1
        # All busy VCs at the port carry the same destination: pure.
        assert router.blocking.purity == 1.0

    def test_sampling_disabled_by_default(self):
        router = make_router(node=5, routing="dor")
        east = router.output_ports[Direction.EAST]
        for v in range(4):
            east.allocate(v, dst=6)
        router.receive_flit(Direction.WEST, 1, head_flit(src=4, dst=6))
        router.route_and_allocate()
        assert router.blocking.blocking_events == 0


def count_request_calls(router):
    """Count the router's ``vc_requests_at`` calls in a one-item list."""
    calls = [0]
    inner = router.routing.vc_requests_at

    def counting(ctx, direction):
        calls[0] += 1
        return inner(ctx, direction)

    router.routing.vc_requests_at = counting
    return calls


class TestAllocationBookkeeping:
    """A freshly-released set is consumed by exactly one allocation round,
    however the release arose, and the router learns about it from the
    ports' shared event record instead of polling them."""

    @staticmethod
    def _fresh_ports(router):
        return list(router._events.fresh_ports)

    def test_credit_woken_empty_router_clears_via_clear_fresh_only(self):
        router = make_router(node=5, routing="footprint")
        router.receive_flit(Direction.WEST, 1, head_flit(src=4, dst=6))
        router.route_and_allocate()
        out_vc = router.input_vcs[Direction.WEST][1].out_vc
        router.switch_traversal()
        router.link_traversal()
        assert router.inflight == 0
        east = router.output_ports[Direction.EAST]
        # Atomic reallocation: the VC drains until its credit is back.
        assert not east.grantable(out_vc)
        assert not router.credit_pending

        router.receive_credit(Direction.EAST, out_vc)
        assert router.credit_pending
        assert east.fresh_footprint_mask(6) == 1 << out_vc
        assert self._fresh_ports(router) == [Direction.EAST]

        router._events.changed = False
        router.clear_fresh_only()
        assert east.fresh == 0
        assert self._fresh_ports(router) == []
        assert out_vc in east.idle_vcs()
        # Requests computed against the fresh set are stale: an event.
        assert router._events.changed
        # Nothing left to consume: a second round changes nothing.
        router._events.changed = False
        router.clear_fresh_only()
        assert not router._events.changed

    def test_non_atomic_release_in_switch_traversal_lasts_one_round(self):
        router = make_router(node=5, routing="dor")
        router.receive_flit(Direction.WEST, 0, head_flit(src=4, dst=6))
        router.route_and_allocate()
        out_vc = router.input_vcs[Direction.WEST][0].out_vc
        router.switch_traversal()
        east = router.output_ports[Direction.EAST]
        # The tail left: DOR frees the VC at once, owner kept for a round.
        assert east.fresh == 1 << out_vc
        assert self._fresh_ports(router) == [Direction.EAST]
        assert router.inflight == 1  # staged, so a round runs next cycle

        router.route_and_allocate()
        assert east.fresh == 0
        assert self._fresh_ports(router) == []
        assert router._events.changed

    def test_atomic_drain_reclaimed_in_the_round_after_the_credit(self):
        router = make_router(node=5, routing="footprint")
        east = router.output_ports[Direction.EAST]
        for v in (1, 2, 3):
            east.allocate(v, dst=6)
        # Tail sent: VC 1 drains.
        send(router, Direction.EAST, 1, head_flit(src=4, dst=6))
        router.link_traversal()
        router.receive_flit(Direction.WEST, 2, head_flit(src=4, dst=6))
        ivc = router.input_vcs[Direction.WEST][2]

        # Saturated with a live footprint: the packet waits on it, round
        # after round, without asking the routing algorithm again.
        calls = count_request_calls(router)
        router.route_and_allocate()
        assert ivc.state is VcState.ROUTING
        assert calls == [1]
        router.route_and_allocate()
        assert calls == [1]

        router.receive_credit(Direction.EAST, 1)
        assert east.fresh_footprint_mask(6) == 0b0010
        router.route_and_allocate()
        assert calls == [2]
        assert ivc.state is VcState.ACTIVE
        assert (ivc.out_direction, ivc.out_vc) == (Direction.EAST, 1)
        assert east.fresh == 0
        assert self._fresh_ports(router) == []

    def test_fresh_set_is_seen_by_exactly_one_round(self):
        """Another flow's VC frees while the head waits on its footprint:
        the round that sees it fresh must not take it, the next round
        (woken by nothing but the fresh set being cleared) must."""
        router = make_router(node=5, routing="footprint")
        east = router.output_ports[Direction.EAST]
        east.allocate(1, dst=6)  # the head's footprint, stays busy
        east.allocate(2, dst=7)
        east.allocate(3, dst=7)
        # Tail sent: VC 2 drains.
        send(router, Direction.EAST, 2, head_flit(src=4, dst=7))
        router.link_traversal()
        router.receive_flit(Direction.WEST, 2, head_flit(src=4, dst=6))
        ivc = router.input_vcs[Direction.WEST][2]
        calls = count_request_calls(router)
        router.route_and_allocate()
        assert calls == [1] and ivc.state is VcState.ROUTING

        router.receive_credit(Direction.EAST, 2)
        assert east.fresh == 0b0100
        router.route_and_allocate()
        # Saturated when its held requests were computed: keep waiting.
        assert calls == [2] and ivc.state is VcState.ROUTING
        assert east.fresh == 0

        router.route_and_allocate()
        # VC 2 is established idle now: the intermediate regime takes it.
        assert calls == [3] and ivc.state is VcState.ACTIVE
        assert (ivc.out_direction, ivc.out_vc) == (Direction.EAST, 2)

    def test_fault_mask_change_invalidates_cached_requests(self):
        router = make_router(node=5, routing="dor")
        router.set_fault_mask(1 << Direction.EAST)
        router.receive_flit(Direction.WEST, 0, head_flit(src=4, dst=6))
        ivc = router.input_vcs[Direction.WEST][0]
        calls = count_request_calls(router)
        router.route_and_allocate()
        # Committed to the dead port; its requests are filtered to none.
        assert ivc.state is VcState.ROUTING
        assert ivc.committed_dir is Direction.EAST
        router.route_and_allocate()
        assert ivc.state is VcState.ROUTING
        assert calls == [1]

        # The heal changes no VC state — only the mask — and must still
        # force the requests to be recomputed.
        router.set_fault_mask(0)
        router.route_and_allocate()
        assert calls == [2]
        assert ivc.state is VcState.ACTIVE

    def test_wedged_router_asks_nothing_until_an_event(self):
        """Heads stuck behind a dead port: after the round that found
        them nothing, no round calls ``vc_requests_at`` (or draws a
        random number) until a VC event, a mask change or a new head."""
        router = make_router(node=5, routing="footprint")
        router.enable_blocking_sampling(True)
        router.set_fault_mask(1 << Direction.EAST)
        router.receive_flit(Direction.WEST, 1, head_flit(src=4, dst=6))
        router.receive_flit(Direction.NORTH, 2, head_flit(src=1, dst=7))
        calls = count_request_calls(router)
        router.route_and_allocate()
        assert calls == [2]
        rng_state = router.rng.getstate()
        for _ in range(50):
            router.route_and_allocate()
        assert calls == [2]
        assert router.rng.getstate() == rng_state
        # Unevaluated rounds still sample their blocked heads.
        assert router.blocking.blocking_events == 2 * 51

        # A new head is an event: everyone is asked again, and the new
        # packet (bound south, a live port) is granted.
        router.receive_flit(Direction.WEST, 3, head_flit(src=4, dst=13))
        router.route_and_allocate()
        assert calls == [5]
        assert router.input_vcs[Direction.WEST][3].state is VcState.ACTIVE
        # That grant is an event too, so one more evaluated round follows.
        router.route_and_allocate()
        assert calls == [7]
        router.route_and_allocate()
        assert calls == [7]

    def test_accept_counters_are_zero_after_switch_traversal(self):
        router = make_router(node=5, routing="dor")
        router.receive_flit(Direction.WEST, 0, head_flit(src=4, dst=6))
        router.receive_flit(Direction.NORTH, 0, head_flit(src=1, dst=6))
        router.route_and_allocate()
        router.route_and_allocate()
        assert len(router.switch_traversal()) == 2
        for port in router.output_ports.values():
            assert port._accepted_this_cycle == 0
            assert port.consistency_violation() is None

    def test_rejected_grant_names_the_router(self, monkeypatch):
        router = make_router(node=5)
        router.validator = object()  # any validator turns the check on
        router.receive_flit(Direction.WEST, 0, head_flit(src=4, dst=6))
        allocate = router_module.allocate_vcs
        monkeypatch.setattr(
            router_module, "allocate_vcs", lambda *args: allocate(*args) * 2
        )
        with pytest.raises(InvariantViolation, match="node 5") as excinfo:
            router.route_and_allocate()
        assert excinfo.value.checker == "vc_allocation"
        assert excinfo.value.node == 5
