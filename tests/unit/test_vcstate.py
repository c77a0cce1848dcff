"""Unit tests for the input-VC state machine."""

import pytest

from repro.exceptions import FlowControlError
from repro.router.flit import Packet
from repro.router.vcstate import InputVc, VcState, non_reset_vcs
from repro.topology.ports import Direction


def flits_of(size=2, dst=5):
    return Packet(src=0, dst=dst, size=size, creation_time=0).flits()


@pytest.fixture
def vc():
    return InputVc(Direction.WEST, 1, depth=4)


class TestStateMachine:
    def test_starts_idle(self, vc):
        assert vc.state is VcState.IDLE
        assert vc.front() is None
        assert vc.occupancy == 0

    def test_head_promotes_to_routing(self, vc):
        vc.push(flits_of()[0])
        vc.refresh_state()
        assert vc.state is VcState.ROUTING

    def test_grant_moves_to_active(self, vc):
        vc.push(flits_of()[0])
        vc.refresh_state()
        vc.grant(Direction.EAST, 2)
        assert vc.state is VcState.ACTIVE
        assert vc.out_direction is Direction.EAST
        assert vc.out_vc == 2

    def test_grant_requires_routing_state(self, vc):
        with pytest.raises(FlowControlError):
            vc.grant(Direction.EAST, 0)

    def test_tail_pop_releases(self, vc):
        head, tail = flits_of(size=2)
        vc.push(head)
        vc.push(tail)
        vc.refresh_state()
        vc.grant(Direction.EAST, 0)
        assert vc.pop() is head
        assert vc.state is VcState.ACTIVE
        assert vc.pop() is tail
        assert vc.state is VcState.IDLE
        assert vc.out_direction is None
        assert vc.committed_dir is None

    def test_tail_pop_promotes_queued_head(self, vc):
        first = flits_of(size=1)[0]
        second = flits_of(size=1, dst=9)[0]
        vc.push(first)
        vc.push(second)
        vc.refresh_state()
        vc.grant(Direction.EAST, 0)
        vc.pop()
        # The next packet's head is at the front: straight to ROUTING.
        assert vc.state is VcState.ROUTING
        assert vc.front() is second


class TestFlowControl:
    def test_overflow_detected(self, vc):
        for flit in flits_of(size=4):
            vc.push(flit)
        with pytest.raises(FlowControlError):
            vc.push(flits_of(size=1)[0])

    def test_pop_empty_raises(self, vc):
        with pytest.raises(FlowControlError):
            vc.pop()

    def test_non_head_at_front_of_idle_vc_raises(self, vc):
        body = flits_of(size=3)[1]
        vc.push(body)
        with pytest.raises(FlowControlError):
            vc.refresh_state()

    def test_has_space(self, vc):
        assert vc.has_space
        for flit in flits_of(size=4):
            vc.push(flit)
        assert not vc.has_space


def test_repr(vc):
    text = repr(vc)
    assert "WEST" in text
    assert "idle" in text


class TestResetState:
    """``non_reset_vcs`` is the census :mod:`repro.validate` checks
    from: it may leave out exactly the VCs nothing can be wrong with."""

    def test_reset_vc_is_left_out_and_legal(self, vc):
        assert non_reset_vcs({Direction.WEST: [vc]}) == []
        assert vc.legality_violation() is None

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("state", VcState.ROUTING,
             "ROUTING input VC has no buffered flit"),
            ("state", VcState.ACTIVE,
             "ACTIVE input VC missing output registers"),
            ("fifo", flits_of(), "IDLE input VC holds buffered flits"),
            ("out_direction", Direction.EAST,
             "IDLE input VC holds output registers"),
            ("out_vc", 0, "IDLE input VC holds output registers"),
            ("committed_dir", Direction.EAST,
             "IDLE input VC holds a route commitment"),
        ],
    )
    def test_each_clause_lists_the_vc(self, vc, field, value, message):
        other = InputVc(Direction.WEST, 0, depth=4)
        setattr(vc, field, value)
        assert non_reset_vcs({Direction.WEST: [other, vc]}) == [vc]
        assert vc.legality_violation() == message

    def test_working_vcs_are_listed_in_port_order(self, vc):
        local = InputVc(Direction.LOCAL, 0, depth=4)
        for ivc in (vc, local):
            ivc.push(flits_of(size=1)[0])
            ivc.refresh_state()
        ports = {Direction.WEST: [vc], Direction.LOCAL: [local]}
        assert non_reset_vcs(ports) == [vc, local]
