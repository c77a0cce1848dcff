"""Unit tests for output-port state: credits, allocation, footprints."""

import pytest

from repro.exceptions import AllocationError, FlowControlError
from repro.router.flit import Packet
from repro.router.output import OutputPort
from repro.topology.ports import Direction


def make_port(num_vcs=4, escape=0, atomic=True, depth=4, speedup=2, fifo=8):
    return OutputPort(
        direction=Direction.EAST,
        num_vcs=num_vcs,
        downstream_depth=depth,
        fifo_depth=fifo,
        speedup=speedup,
        escape_vc=escape,
        atomic_realloc=atomic,
    )


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
        port = make_port()
        start = port.free_credit_total()
        assert start == 3 * 4
        port.allocate(1, dst=7)
        port.send(flit(), 1)
        assert port.free_credit_total() == start - 1
        port.pop_link()
        port.credit_return(1)
        assert port.free_credit_total() == start

    def test_escape_credits_not_in_adaptive_total(self):
        port = make_port()
        port.allocate(0, dst=7)
        total = port.free_credit_total()
        port.send(flit(), 0)
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
        port = make_port(atomic=True)
        port.allocate(1, dst=7)
        port.send(flit(size=1), 1)  # single flit: head and tail
        # Tail sent but credit not returned: still not grantable, and the
        # owner remains visible as a footprint.
        assert not port.grantable(1)
        assert port.footprint_vcs(7) == [1]
        port.credit_return(1)
        assert port.grantable(1)
        assert port.footprint_vcs(7) == []

    def test_non_atomic_frees_on_tail_send(self):
        port = make_port(atomic=False, escape=None)
        port.allocate(1, dst=7)
        port.send(flit(size=1), 1)
        assert port.grantable(1)

    def test_multi_flit_drain(self):
        port = make_port(atomic=True)
        port.allocate(2, dst=7)
        head, tail = Packet(src=0, dst=7, size=2, creation_time=0).flits()
        port.send(head, 2)
        port.send(tail, 2)
        port.credit_return(2)
        assert not port.grantable(2)  # one credit still outstanding
        port.credit_return(2)
        assert port.grantable(2)


class TestFreshRelease:
    def test_release_marks_fresh_with_stale_owner(self):
        port = make_port(atomic=True)
        port.allocate(1, dst=7)
        port.send(flit(), 1)
        port.credit_return(1)
        assert port.fresh == 0b0010
        assert port.fresh_footprint_mask(7) == 0b0010
        assert port.fresh_footprint_mask(9) == 0
        assert port.idle_vcs() == [1, 2, 3]

    def test_clear_fresh(self):
        port = make_port(atomic=True)
        port.allocate(1, dst=7)
        port.send(flit(), 1)
        port.credit_return(1)
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
        port = make_port(atomic=True)
        port.allocate(1, dst=7)
        port.send(flit(), 1)
        port.credit_return(1)
        port.allocate(1, dst=9)
        assert port.fresh == 0
        assert port.footprint_vcs(9) == [1]

    def test_version_bumps_on_state_changes(self):
        """Allocation and release are events; credits and sends are not."""
        port = make_port()
        events = port.events
        events.changed = False
        port.allocate(1, dst=7)
        assert events.changed
        events.changed = False
        port.send(flit(), 1)  # tail sent: draining, still not grantable
        port.pop_link()
        assert not events.changed
        port.credit_return(1)  # drain complete: released
        assert events.changed


class TestSwitchTraversal:
    def test_speedup_limits_acceptance(self):
        port = make_port(speedup=2)
        port.allocate(1, dst=7)
        assert port.accept_capacity() == 2
        port.send(flit(size=3, idx=0), 1)
        port.send(flit(size=3, idx=1), 1)
        assert port.accept_capacity() == 0
        assert not port.can_send(1)
        port.new_cycle()
        assert port.accept_capacity() == 2

    def test_accept_counter_left_set_is_a_consistency_violation(self):
        port = make_port(speedup=2)
        port.allocate(1, dst=7)
        port.send(flit(size=3, idx=0), 1)
        assert "accept counter" in port.consistency_violation()
        port.new_cycle()
        assert port.consistency_violation() is None

    def test_fifo_capacity_limits_acceptance(self):
        port = make_port(speedup=2, fifo=2, depth=8)
        port.allocate(1, dst=7)
        for i in range(2):
            port.send(flit(size=8, idx=i), 1)
            port.new_cycle()
        assert port.accept_capacity() == 0

    def test_credit_underflow_rejected(self):
        port = make_port(depth=1)
        port.allocate(1, dst=7)
        port.send(flit(size=2, idx=0), 1)
        with pytest.raises(FlowControlError):
            port.send(flit(size=2, idx=1), 1)

    def test_credit_overflow_rejected(self):
        port = make_port()
        with pytest.raises(FlowControlError):
            port.credit_return(1)

    def test_link_pops_in_fifo_order(self):
        port = make_port()
        port.allocate(1, dst=7)
        a = flit(size=2, idx=0)
        b = flit(size=2, idx=1)
        port.send(a, 1)
        port.send(b, 1)
        assert port.pop_link() == (a, 1)
        assert port.pop_link() == (b, 1)
        assert port.pop_link() is None


class TestResetStateEarlyOut:
    """``consistency_violation`` skips the recount for a port in its
    reset state; a port that violates exactly one clause of that
    predicate must still reach the recount and its message."""

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
        port = make_port(atomic=True)
        port.allocate(1, dst=7)
        port.allocate(2, dst=9)
        port.send(flit(dst=9), 2)
        port.new_cycle()
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
