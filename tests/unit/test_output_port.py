"""Unit tests for output-port state: credits, allocation, footprints.

The port holds the registers; a flit reaches them through the router's
stage methods (switch traversal, link traversal, credit return), so the
flit-path tests drive the EAST port of a router.
"""

import pytest

from repro.exceptions import AllocationError, FlowControlError
from repro.router.flit import Packet
from repro.router.output import OutputPort
from repro.topology.ports import Direction

from tests.conftest import hold_grant, make_router, send

EAST = Direction.EAST


def make_port(num_vcs=4, escape=0, atomic=True, depth=4, speedup=2, fifo=8):
    return OutputPort(
        direction=EAST,
        num_vcs=num_vcs,
        downstream_depth=depth,
        fifo_depth=fifo,
        speedup=speedup,
        escape_vc=escape,
        atomic_realloc=atomic,
    )


def routed_port(atomic=True, depth=4, speedup=2, fifo=8):
    """``(router, its EAST port)``: Footprint's port (escape VC 0, atomic
    reallocation) or DOR's (no escape VC, non-atomic), four VCs."""
    router = make_router(
        routing="footprint" if atomic else "dor",
        vc_buffer_depth=depth,
        internal_speedup=speedup,
        output_buffer_depth=fifo,
    )
    return router, router.output_ports[EAST]


def flit(size=1, dst=7, idx=0):
    return Packet(src=0, dst=dst, size=size, creation_time=0).flits()[idx]


class TestViews:
    def test_adaptive_excludes_escape(self):
        assert make_port().adaptive == 0b1110
        assert make_port(escape=None).adaptive == 0b1111

    def test_initially_all_idle(self):
        port = make_port()
        assert port.idle_vcs() == [1, 2, 3]
        assert port.free == 0b1111 and port.adaptive == 0b1110
        assert port.footprint_vcs(7) == []

    def test_allocation_updates_views(self):
        port = make_port()
        port.allocate(2, dst=7)
        assert 2 not in port.idle_vcs()
        assert port.free == 0b1011 and port.allocated == 0b0100
        assert port.consistency_violation() is None
        assert port.footprint_vcs(7) == [2]
        assert port.footprint_vcs(9) == []

    def test_free_credit_total_tracks_sends(self):
        router, port = routed_port()
        start = port.free_credit_total()
        assert start == 3 * 4
        port.allocate(1, dst=7)
        send(router, EAST, 1, flit())
        assert port.free_credit_total() == start - 1
        router.link_traversal()
        router.receive_credit(EAST, 1)
        assert port.free_credit_total() == start

    def test_escape_credits_not_in_adaptive_total(self):
        router, port = routed_port()
        port.allocate(0, dst=7)
        total = port.free_credit_total()
        send(router, EAST, 0, flit())
        assert port.credits[0] == 3
        assert port.free_credit_total() == total


class TestAllocation:
    def test_double_allocation_rejected(self):
        port = make_port()
        port.allocate(1, dst=7)
        with pytest.raises(AllocationError):
            port.allocate(1, dst=8)

    def test_grantable(self):
        port = make_port()
        assert port.grantable(1)
        port.allocate(1, dst=7)
        assert not port.grantable(1)


class TestAtomicReallocation:
    def test_vc_held_until_tail_credit_returns(self):
        router, port = routed_port(atomic=True)
        port.allocate(1, dst=7)
        send(router, EAST, 1, flit(size=1))  # single flit: head and tail
        # Tail sent but credit not returned: still not grantable, and the
        # owner remains visible as a footprint.
        assert not port.grantable(1)
        assert port.footprint_vcs(7) == [1]
        router.link_traversal()
        router.receive_credit(EAST, 1)
        assert port.grantable(1)
        assert port.footprint_vcs(7) == []
        # The release is the credit event an allocation round must see.
        assert router.credit_pending

    def test_non_atomic_frees_on_tail_send(self):
        router, port = routed_port(atomic=False)
        port.allocate(1, dst=7)
        send(router, EAST, 1, flit(size=1))
        assert port.grantable(1)
        router.link_traversal()
        router.receive_credit(EAST, 1)
        assert not router.credit_pending  # a plain counter update

    def test_multi_flit_drain(self):
        router, port = routed_port(atomic=True)
        port.allocate(2, dst=7)
        head, tail = Packet(src=0, dst=7, size=2, creation_time=0).flits()
        send(router, EAST, 2, head, tail)
        router.receive_credit(EAST, 2)
        assert not port.grantable(2)  # one credit still outstanding
        assert not router.credit_pending
        router.receive_credit(EAST, 2)
        assert port.grantable(2)
        assert router.credit_pending


class TestFreshRelease:
    def test_release_marks_fresh_with_stale_owner(self):
        router, port = routed_port(atomic=True)
        port.allocate(1, dst=7)
        send(router, EAST, 1, flit())
        router.receive_credit(EAST, 1)
        assert port.fresh == 0b0010
        assert port.fresh_footprint_mask(7) == 0b0010
        assert port.fresh_footprint_mask(9) == 0
        assert port.idle_vcs() == [1, 2, 3]

    def test_clear_fresh(self):
        router, port = routed_port(atomic=True)
        port.allocate(1, dst=7)
        send(router, EAST, 1, flit())
        router.receive_credit(EAST, 1)
        port.events.changed = False
        port.clear_fresh()
        assert port.fresh == 0 and port.fresh_footprint_mask(7) == 0
        assert port.idle_vcs() == [1, 2, 3]
        assert port.events.changed
        # Nothing left to forget: clearing again is not an event.
        port.events.changed = False
        port.clear_fresh()
        assert not port.events.changed

    def test_reallocation_clears_fresh(self):
        router, port = routed_port(atomic=True)
        port.allocate(1, dst=7)
        send(router, EAST, 1, flit())
        router.receive_credit(EAST, 1)
        port.allocate(1, dst=9)
        assert port.fresh == 0
        assert port.footprint_vcs(9) == [1]

    def test_version_bumps_on_state_changes(self):
        """Allocation and release are events; credits and sends are not."""
        router, port = routed_port()
        events = port.events
        assert events is router._events
        events.changed = False
        port.allocate(1, dst=7)
        assert events.changed
        events.changed = False
        send(router, EAST, 1, flit())  # tail sent: draining, not grantable
        router.link_traversal()
        assert not events.changed
        router.receive_credit(EAST, 1)  # drain complete: released
        assert events.changed


class TestSwitchTraversal:
    def test_speedup_limits_acceptance(self):
        router, port = routed_port(speedup=2)
        inputs = (Direction.WEST, Direction.NORTH, Direction.SOUTH)
        for out_vc, via in enumerate(inputs, start=1):
            port.allocate(out_vc, dst=7)
            hold_grant(router, via, 0, EAST, out_vc)
            router.receive_flit(via, 0, flit())
        # Three inputs hold a flit for the port: two cross, one waits.
        assert len(router.switch_traversal()) == 2
        assert len(port.fifo) == 2
        assert router.buffered_input_flits == 1
        # The speedup is per cycle: the next cycle takes the third.
        assert port._accepted_this_cycle == 0
        assert len(router.switch_traversal()) == 1
        assert len(port.fifo) == 3

    def test_accept_counter_left_set_is_a_consistency_violation(self):
        router, port = routed_port(speedup=2)
        port.allocate(1, dst=7)
        send(router, EAST, 1, flit(size=3, idx=0))
        assert port.consistency_violation() is None
        port._accepted_this_cycle = 1
        assert "accept counter" in port.consistency_violation()

    def test_fifo_capacity_limits_acceptance(self):
        router, port = routed_port(speedup=2, fifo=2, depth=8)
        port.allocate(1, dst=7)
        send(router, EAST, 1, *(flit(size=8, idx=i) for i in range(3)))
        # No link traversal: the third flit finds the FIFO full and waits.
        assert len(port.fifo) == 2
        assert len(router.input_vcs[Direction.LOCAL][0].fifo) == 1
        assert router.switch_traversal() == []
        router.link_traversal()
        assert len(router.switch_traversal()) == 1

    def test_credit_underflow_rejected(self, monkeypatch):
        router, port = routed_port(depth=1)
        port.allocate(1, dst=7)
        port.allocate(2, dst=7)
        head, body = flit(size=2, idx=0), flit(size=2, idx=1)
        send(router, EAST, 1, head, body)
        # Without a credit the body is not sendable: it waits.
        assert port.credits[1] == 0
        assert [f for f, _vc in port.fifo] == [head]
        ivc = router.input_vcs[Direction.LOCAL][0]
        assert ivc.fifo == [body]
        # A winner the sendable scan did not clear is refused, not sent.
        hold_grant(router, Direction.LOCAL, 1, EAST, 2)
        router.receive_flit(Direction.LOCAL, 1, flit(size=2, idx=0))
        arbiter = router._vc_arbiters[Direction.LOCAL]
        monkeypatch.setattr(arbiter, "grant_mask", lambda mask: 0)
        with pytest.raises(FlowControlError, match="credit underflow on "
                           "EAST VC 1"):
            router.switch_traversal()

    def test_output_fifo_overflow_rejected(self, monkeypatch):
        router, port = routed_port(fifo=2, speedup=2)
        port.allocate(1, dst=7)
        send(router, EAST, 1, *(flit(size=4, idx=i) for i in range(3)))
        assert len(port.fifo) == 2  # full: the third flit waits
        # The scan clears a flit bound elsewhere; the forced winner is not.
        south = router.output_ports[Direction.SOUTH]
        south.allocate(1, dst=13)
        hold_grant(router, Direction.LOCAL, 1, Direction.SOUTH, 1)
        router.receive_flit(Direction.LOCAL, 1, flit(dst=13))
        hold_grant(router, Direction.LOCAL, 2, EAST, 1)
        router.receive_flit(Direction.LOCAL, 2, flit(size=4, idx=3))
        arbiter = router._vc_arbiters[Direction.LOCAL]
        monkeypatch.setattr(arbiter, "grant_mask", lambda mask: 2)
        with pytest.raises(FlowControlError, match="output FIFO overflow "
                           "on EAST"):
            router.switch_traversal()

    def test_credit_overflow_rejected(self):
        router, _port = routed_port()
        with pytest.raises(FlowControlError, match="credit overflow on "
                           "EAST VC 1"):
            router.receive_credit(EAST, 1)

    def test_link_pops_in_fifo_order(self):
        router, port = routed_port()
        port.allocate(1, dst=7)
        a = flit(size=2, idx=0)
        b = flit(size=2, idx=1)
        send(router, EAST, 1, a, b)
        assert router.link_traversal() == [(EAST, 1, a)]
        assert router.link_traversal() == [(EAST, 1, b)]
        assert router.link_traversal() == []

    def test_blocked_link_launches_nothing(self):
        router, port = routed_port()
        port.allocate(1, dst=7)
        a = flit()
        send(router, EAST, 1, a)
        assert router.link_traversal(1 << EAST) == []
        assert router.link_traversal() == [(EAST, 1, a)]


class TestResetStateEarlyOut:
    """A port one field away from its reset state: the recount names
    that field.  (The invariant sweep passes reset ports without calling
    ``consistency_violation``; that every clause of its reset comparison
    reaches the recount is pinned in
    ``tests/property/test_prop_checker_equivalence.py``.)"""

    def test_reset_port_is_consistent(self):
        port = make_port()
        assert port.consistency_violation() is None
        port.fresh = 0b0110  # released and not yet consumed: still reset
        assert port.consistency_violation() is None

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda p: p.credits.__setitem__(1, 5),
             "VC 1 credit count 5 outside [0, 4]"),
            (lambda p: setattr(p, "allocated", 0b0010),
             "allocated VC 1 has no owner destination"),
            (lambda p: setattr(p, "_draining", 0b0010),
             "free-VC mask 0b1111 != 0b1101, the VCs neither allocated "
             "nor draining"),
            (lambda p: p.fifo.extend([(flit(), 1)] * 9),
             "staging FIFO above its depth"),
            (lambda p: setattr(p, "_accepted_this_cycle", 1),
             "switch accept counter 1 not reset between cycles"),
            (lambda p: p._fp.__setitem__(7, 0),
             "footprint index {7: 0} != {} recomputed from the owners of "
             "the busy adaptive VCs"),
            # A VC dropped from the free mask reads as busy ...
            (lambda p: setattr(p, "free", 0b1101),
             "free-VC mask 0b1101 != 0b1111, the VCs neither allocated "
             "nor draining"),
            (lambda p: setattr(p, "_adaptive_credits", 11),
             "adaptive credit total 11 != recounted 12"),
            # ... and one the port does not have reads as idle.
            (lambda p: setattr(p, "free", 0b11111),
             "free-VC mask 0b11111 != 0b1111, the VCs neither allocated "
             "nor draining"),
            (lambda p: setattr(p, "fresh", 0b10000),
             "freshly-released VCs [4] are not free"),
        ],
        ids=[
            "credits", "allocated", "draining", "fifo", "accept-counter",
            "fp-index", "busy-count", "adaptive-credits", "idle-cache",
            "fresh",
        ],
    )
    def test_each_clause_falls_through_to_the_recount(self, damage, message):
        port = make_port()
        damage(port)
        assert port.consistency_violation() == message


class TestMaskInvariants:
    """The clauses tying the masks to each other, one per test, on a
    port that is in use (VC 1 allocated to destination 7, VC 2
    draining)."""

    @staticmethod
    def busy_port():
        router, port = routed_port(atomic=True)
        port.allocate(1, dst=7)
        port.allocate(2, dst=9)
        send(router, EAST, 2, flit(dst=9))
        assert port.consistency_violation() is None
        assert (port.allocated, port._draining, port.free) == (
            0b0010, 0b0100, 0b1001,
        )
        return port

    def test_free_is_exactly_not_allocated_and_not_draining(self):
        port = self.busy_port()
        port.free |= 0b0100  # a draining VC offered for allocation
        assert port.consistency_violation() == (
            "free-VC mask 0b1101 != 0b1001, the VCs neither allocated "
            "nor draining"
        )
        port = self.busy_port()
        port.free &= ~0b1000  # an idle VC withheld from it
        assert port.consistency_violation() == (
            "free-VC mask 0b1 != 0b1001, the VCs neither allocated "
            "nor draining"
        )

    def test_fresh_is_a_subset_of_free(self):
        port = self.busy_port()
        port.fresh = 0b1010  # VC 3 is free, VC 1 is allocated
        assert port.consistency_violation() == (
            "freshly-released VCs [1] are not free"
        )

    def test_footprint_index_equals_a_recount_from_the_owners(self):
        port = self.busy_port()
        assert port._fp == {7: 0b0010, 9: 0b0100}  # draining VCs count
        port.owner_dst[2] = 7
        assert port.consistency_violation() == (
            "footprint index {7: 2, 9: 4} != {7: 6} recomputed from the "
            "owners of the busy adaptive VCs"
        )
        port = self.busy_port()
        del port._fp[9]
        assert "footprint index {7: 2} != {7: 2, 9: 4}" in (
            port.consistency_violation()
        )
