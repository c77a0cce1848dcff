"""Unit tests for the input-VC state machine.

An input VC holds the registers; its transitions happen in the router's
stage methods, so these tests drive input VC WEST.1 of a router.
"""

import pytest

from repro.exceptions import FlowControlError
from repro.router import router as router_module
from repro.router.flit import Packet
from repro.router.vcstate import InputVc, VcState, non_reset_vcs
from repro.topology.ports import Direction

from tests.conftest import make_router

WEST = Direction.WEST


def flits_of(size=2, dst=6):
    return Packet(src=4, dst=dst, size=size, creation_time=0).flits()


@pytest.fixture
def router():
    return make_router(node=5)


@pytest.fixture
def vc(router):
    return router.input_vcs[WEST][1]


def receive(router, *flits):
    for flit in flits:
        router.receive_flit(WEST, 1, flit)


class TestStateMachine:
    def test_starts_idle(self, vc):
        assert vc.state is VcState.IDLE
        assert vc.front() is None
        assert vc.fifo == []

    def test_head_promotes_to_routing(self, router, vc):
        receive(router, flits_of()[0])
        assert vc.state is VcState.ROUTING
        assert list(router._pending.values()) == [vc]

    def test_grant_moves_to_active(self, router, vc):
        receive(router, flits_of()[0])
        router.route_and_allocate()
        assert vc.state is VcState.ACTIVE
        assert vc.out_direction is Direction.EAST
        east = router.output_ports[Direction.EAST]
        assert east.allocated == 1 << vc.out_vc
        assert east.owner_dst[vc.out_vc] == 6
        assert vc.committed_dir is None
        assert not router._pending

    def test_grant_requires_routing_state(self, router, vc, monkeypatch):
        receive(router, flits_of()[0])
        allocate = router_module.allocate_vcs

        def granted_twice(*args):
            grants = allocate(*args)
            (ivc, direction, out_vc, priority), = grants
            return grants + [(ivc, direction, out_vc ^ 1, priority)]

        monkeypatch.setattr(router_module, "allocate_vcs", granted_twice)
        with pytest.raises(FlowControlError, match="non-routing"):
            router.route_and_allocate()

    def test_tail_pop_releases(self, router, vc):
        head, tail = flits_of(size=2)
        receive(router, head, tail)
        router.route_and_allocate()
        east = router.output_ports[Direction.EAST]
        assert router.switch_traversal() == [(WEST, 1)]
        assert east.fifo[-1][0] is head
        assert vc.state is VcState.ACTIVE
        assert router.switch_traversal() == [(WEST, 1)]
        assert east.fifo[-1][0] is tail
        assert vc.state is VcState.IDLE
        assert vc.out_direction is None and vc.out_vc is None
        assert vc.committed_dir is None
        assert vc.legality_violation() is None

    def test_tail_pop_promotes_queued_head(self, router, vc):
        first = flits_of(size=1)[0]
        second = flits_of(size=1, dst=9)[0]
        receive(router, first, second)
        router.route_and_allocate()
        router._events.changed = False
        router.switch_traversal()
        # The next packet's head is at the front: straight to ROUTING.
        assert vc.state is VcState.ROUTING
        assert vc.front() is second
        assert list(router._pending.values()) == [vc]
        assert router._events.changed


class TestFlowControl:
    def test_overflow_detected(self, router, vc):
        receive(router, *flits_of(size=4))
        with pytest.raises(FlowControlError, match="input VC WEST.1 "
                           "overflow: credit protocol violated"):
            receive(router, flits_of(size=1)[0])
        assert len(vc.fifo) == 4 and router.buffered_input_flits == 4

    def test_pop_empty_raises(self, router, vc):
        receive(router, *flits_of(size=2))
        router.route_and_allocate()
        # A VC counted as occupied with nothing buffered: the switch
        # refuses to read it.
        vc.fifo.clear()
        with pytest.raises(FlowControlError, match="pop from empty"):
            router.switch_traversal()

    def test_non_head_at_front_of_idle_vc_raises(self, router, vc):
        body = flits_of(size=3)[1]
        with pytest.raises(FlowControlError, match="non-head flit .* at "
                           "front of idle VC WEST.1"):
            receive(router, body)
        assert vc.state is VcState.IDLE and not router._pending

    def test_non_head_behind_a_tail_raises_when_the_tail_leaves(
        self, router, vc
    ):
        receive(router, flits_of(size=1)[0], flits_of(size=3)[1])
        router.route_and_allocate()
        with pytest.raises(FlowControlError, match="non-head flit .* at "
                           "front of idle VC WEST.1"):
            router.switch_traversal()

    def test_has_space(self, router, vc):
        assert vc.has_space
        receive(router, *flits_of(size=4))
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

    def test_an_active_vc_keeping_its_route_commitment_is_reported(self, vc):
        vc.state, vc.out_direction, vc.out_vc = VcState.ACTIVE, WEST, 0
        assert vc.legality_violation() is None
        vc.committed_dir = WEST
        assert vc.legality_violation() == (
            "ACTIVE input VC still holds a route commitment")

    def test_working_vcs_are_listed_in_port_order(self, router, vc):
        local = router.input_vcs[Direction.LOCAL][0]
        receive(router, flits_of(size=1)[0])
        router.receive_flit(Direction.LOCAL, 0, flits_of(size=1)[0])
        ports = {Direction.WEST: [vc], Direction.LOCAL: [local]}
        assert non_reset_vcs(ports) == [vc, local]
