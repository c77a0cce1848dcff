"""Stateful property tests for the output port.

A random sequence of legal operations (allocate / switch traversal /
link traversal / credit return / clear fresh), made through the stage
methods of the router that owns the port, must preserve the port's
invariants: credit bounds, the idle/busy partition, footprint-index
consistency with the owner table, and conservation of in-flight flits.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.router.flit import Packet
from repro.routing.requests import bits
from repro.topology.ports import Direction

from tests.conftest import hold_grant, make_router

NUM_VCS = 4
DEPTH = 3
EAST = Direction.EAST
#: The input port feeding each downstream VC: several inputs can send to
#: the port in one cycle, so the speedup and FIFO limits are exercised.
FEEDS = (Direction.WEST, Direction.NORTH, Direction.SOUTH, Direction.LOCAL)


class OutputPortMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.router = make_router(
            routing="footprint",  # escape VC 0, atomic reallocation
            num_vcs=NUM_VCS,
            vc_buffer_depth=DEPTH,
            output_buffer_depth=6,
            internal_speedup=2,
        )
        self.port = self.router.output_ports[EAST]
        # Flits downstream of the port per VC, not yet credited back.
        self.downstream: dict[int, int] = {v: 0 for v in range(NUM_VCS)}

    # ------------------------------------------------------------------
    @rule(vc=st.integers(0, NUM_VCS - 1), dst=st.integers(0, 15),
          size=st.integers(1, DEPTH))
    def allocate(self, vc, dst, size):
        feed = FEEDS[vc]
        ivc = self.router.input_vcs[feed][0]
        if self.port.grantable(vc) and not ivc.fifo:
            self.port.allocate(vc, dst)
            hold_grant(self.router, feed, 0, EAST, vc)
            packet = Packet(src=0, dst=dst, size=size, creation_time=0)
            for flit in packet.flits():
                self.router.receive_flit(feed, 0, flit)

    @rule()
    def switch_traversal(self):
        self.router.switch_traversal()

    @rule()
    def link_traversal(self):
        for _direction, vc, _flit in self.router.link_traversal():
            self.downstream[vc] += 1

    @rule(vc=st.integers(0, NUM_VCS - 1))
    def credit_return(self, vc):
        # Credits may only return for flits that reached the downstream
        # buffer and were consumed there.
        if self.downstream[vc] > 0:
            self.downstream[vc] -= 1
            self.router.receive_credit(EAST, vc)

    @rule()
    def clear_fresh(self):
        self.router.clear_fresh_only()

    # ------------------------------------------------------------------
    @invariant()
    def credits_within_bounds(self):
        for v in range(NUM_VCS):
            assert 0 <= self.port.credits[v] <= DEPTH

    @invariant()
    def flits_are_conserved(self):
        """A VC's credits are missing exactly for its flits between the
        switch and the downstream buffer's release."""
        staged = [vc for _flit, vc in self.port.fifo]
        for v in range(NUM_VCS):
            assert DEPTH - self.port.credits[v] == (
                staged.count(v) + self.downstream[v]
            )

    def _busy_vcs(self):
        """Recounted from the allocated/draining masks, not ``free``."""
        port = self.port
        return [
            v
            for v in bits(port.adaptive)
            if ((port.allocated | port._draining) >> v) & 1
        ]

    @invariant()
    def idle_busy_partition(self):
        idle = set(self.port.idle_vcs())
        busy = set(self._busy_vcs())
        assert not (idle & busy)
        assert idle | busy == set(bits(self.port.adaptive))
        # The switch resets its accept counters: consistent between calls.
        assert self.port.consistency_violation() is None

    @invariant()
    def footprint_index_matches_owner_table(self):
        for v in self._busy_vcs():
            dst = self.port.owner_dst[v]
            assert dst is not None
            assert v in self.port.footprint_vcs(dst)

    @invariant()
    def fresh_subset_of_free(self):
        port = self.port
        assert port.fresh & ~port.free == 0
        assert port.fresh_footprint_mask(0) & ~port.fresh == 0

    @invariant()
    def adaptive_credit_total_consistent(self):
        expected = sum(
            self.port.credits[v] for v in bits(self.port.adaptive)
        )
        assert self.port.free_credit_total() == expected


TestOutputPortStateMachine = OutputPortMachine.TestCase
