"""Network endpoints: injection sources and ejection sinks.

A :class:`Source` owns the (unbounded) source queue of generated packets
and feeds flits into the router's LOCAL input port at link rate (one flit
per cycle), serializing packets as a single injection channel does.

A :class:`Sink` models the endpoint's receive interface: per-VC buffers
matching the router's LOCAL output credits, drained at the configured
ejection bandwidth.  An ``ejection_rate`` below link rate (or two flows
converging on one sink) oversubscribes the endpoint — the paper's
*endpoint congestion*.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.exceptions import FlowControlError
from repro.router.arbiter import RoundRobinArbiter
from repro.router.flit import Flit, Packet
from repro.router.router import Router
from repro.router.vcstate import VcState
from repro.topology.ports import Direction


class Source:
    """Injection interface of one node."""

    def __init__(self, node: int, router: Router, num_vcs: int) -> None:
        self.node = node
        self.router = router
        self.num_vcs = num_vcs
        self.queue: deque[Packet] = deque()
        self._current_flits: list[Flit] | None = None
        self._current_packet: Packet | None = None
        self._vc: int | None = None
        self._vc_rr = 0
        #: Total flits ever enqueued, for offered-load accounting.
        self.offered_flits = 0
        #: Flits enqueued but not yet injected; the engine skips the
        #: injection call entirely while this is zero.
        self.pending_flits = 0

    def enqueue(self, packet: Packet) -> None:
        """Add a generated packet to the source queue."""
        self.queue.append(packet)
        self.offered_flits += packet.size
        self.pending_flits += packet.size

    @property
    def backlog(self) -> int:
        """Packets waiting in the source queue (including the one in
        transmission)."""
        return len(self.queue) + (1 if self._current_packet is not None else 0)

    def inject(self, cycle: int) -> Flit | None:
        """Push at most one flit into the router's LOCAL input port.

        Returns the injected flit, or ``None`` if nothing could enter
        this cycle (truthiness matches the old boolean contract).
        """
        if self._current_packet is None:
            if not self.queue:
                return None
            vc = self._pick_vc()
            if vc is None:
                return None
            packet = self.queue.popleft()
            self._current_packet = packet
            self._current_flits = packet.flits()
            self._vc = vc
        assert self._current_flits is not None and self._vc is not None
        ivc = self.router.input_vcs[Direction.LOCAL][self._vc]
        if not ivc.has_space:
            return None
        flit = self._current_flits.pop(0)
        self.pending_flits -= 1
        self.router.receive_flit(Direction.LOCAL, self._vc, flit)
        if not self._current_flits:
            self._current_packet = None
            self._current_flits = None
            self._vc = None
        return flit

    def _pick_vc(self) -> int | None:
        """Round-robin over idle, empty LOCAL input VCs."""
        vcs = self.router.input_vcs[Direction.LOCAL]
        for offset in range(self.num_vcs):
            v = (self._vc_rr + offset) % self.num_vcs
            ivc = vcs[v]
            if ivc.state is VcState.IDLE and not ivc.fifo:
                self._vc_rr = (v + 1) % self.num_vcs
                return v
        return None


class Sink:
    """Ejection interface of one node."""

    def __init__(
        self,
        node: int,
        num_vcs: int,
        buffer_depth: int,
        ejection_rate: float,
        on_packet: Callable[[Packet, int], None],
    ) -> None:
        self.node = node
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.ejection_rate = ejection_rate
        self.on_packet = on_packet
        self.buffers: list[list[Flit]] = [[] for _ in range(num_vcs)]
        self._arbiter = RoundRobinArbiter(num_vcs)
        self._budget = 0.0
        #: Flits consumed, total and per cycle-window accounting.
        self.ejected_flits = 0
        #: Flits currently buffered, maintained incrementally: the engine
        #: checks it for every sink every cycle to skip empty ones.
        self.occupancy = 0
        #: Bitmask of VCs with buffered flits, so drain arbitration only
        #: enumerates occupied VCs instead of scanning all of them.
        self._occupied = 0

    def receive(self, vc: int, flit: Flit) -> None:
        """A flit arrives from the router's LOCAL output port."""
        if len(self.buffers[vc]) >= self.buffer_depth:
            raise FlowControlError(f"sink {self.node} VC {vc} overflow")
        if flit.dst != self.node:
            raise FlowControlError(
                f"misrouted flit {flit!r} delivered to node {self.node}"
            )
        self.buffers[vc].append(flit)
        self.occupancy += 1
        self._occupied |= 1 << vc

    def drain(self, cycle: int) -> list[int]:
        """Consume flits at the ejection bandwidth.

        Returns the VC indices of consumed flits so the engine can return
        credits to the router's LOCAL output port.
        """
        self._budget = min(self._budget + self.ejection_rate, 4.0)
        consumed: list[int] = []
        while self._budget >= 1.0:
            vc = self._arbiter.grant_mask(self._occupied)
            if vc is None:
                break
            flit = self.buffers[vc].pop(0)
            if not self.buffers[vc]:
                self._occupied &= ~(1 << vc)
            consumed.append(vc)
            self.ejected_flits += 1
            self.occupancy -= 1
            self._budget -= 1.0
            if flit.is_tail:
                flit.packet.ejection_time = cycle
                self.on_packet(flit.packet, cycle)
        return consumed
