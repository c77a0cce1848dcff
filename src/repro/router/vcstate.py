"""Per-input-VC state machine.

Each input VC is a flit FIFO plus the wormhole bookkeeping for the packet
currently at its front:

* ``IDLE`` — no packet in flight; a head flit written into the empty
  FIFO moves the VC to ``ROUTING``.
* ``ROUTING`` — the front packet's head flit needs an output VC; routing
  requests are recomputed every cycle (Footprint's congestion view is
  dynamic) until the VC allocator grants one.
* ``ACTIVE`` — an output port/VC is held; flits flow through switch
  allocation until the tail flit leaves, which releases the input VC back
  to ``IDLE`` (or straight to ``ROUTING`` when the next packet's head is
  already queued behind the tail).

The transitions — a flit's arrival, its VC grant, its departure — are
made by the router's stage methods (:class:`~repro.router.router.Router`);
the VC holds the registers and the legality check.
"""

from __future__ import annotations

import enum

from repro.router.flit import Flit
from repro.topology.ports import Direction


class VcState(enum.Enum):
    IDLE = "idle"
    ROUTING = "routing"
    ACTIVE = "active"


class InputVc:
    """One virtual channel of one router input port."""

    __slots__ = (
        "direction",
        "index",
        "depth",
        "fifo",
        "state",
        "out_direction",
        "out_vc",
        "committed_dir",
    )

    def __init__(self, direction: Direction, index: int, depth: int) -> None:
        self.direction = direction
        self.index = index
        self.depth = depth
        # A list, not a deque: depth is a handful of flits, so pop(0) moves
        # a few words, and an empty list is 56 bytes where a deque is 760.
        self.fifo: list[Flit] = []
        self.state = VcState.IDLE
        self.out_direction: Direction | None = None
        self.out_vc: int | None = None
        # Output port committed at route computation (RC runs once per
        # packet per router); None until the head packet is routed.
        self.committed_dir: Direction | None = None

    # ------------------------------------------------------------------
    @property
    def has_space(self) -> bool:
        return len(self.fifo) < self.depth

    def front(self) -> Flit | None:
        return self.fifo[0] if self.fifo else None

    def legality_violation(self) -> str | None:
        """First violated state-machine/wormhole invariant, or ``None``.

        Used by :mod:`repro.validate` between pipeline stages; the
        invariants below are not guaranteed to hold mid-stage (e.g.
        between a pop and the matching send inside switch traversal).
        """
        state = self.state
        fifo = self.fifo
        if len(fifo) > self.depth:
            return "input VC holds more flits than its buffer depth"
        if state is VcState.IDLE:
            if fifo:
                return "IDLE input VC holds buffered flits"
            if self.out_direction is not None or self.out_vc is not None:
                return "IDLE input VC holds output registers"
            if self.committed_dir is not None:
                return "IDLE input VC holds a route commitment"
        elif state is VcState.ROUTING:
            if not fifo:
                return "ROUTING input VC has no buffered flit"
            if not fifo[0].is_head:
                return "ROUTING input VC fronted by a non-head flit"
            if self.out_direction is not None or self.out_vc is not None:
                return "ROUTING input VC already holds output registers"
        else:  # ACTIVE
            if self.out_direction is None or self.out_vc is None:
                return "ACTIVE input VC missing output registers"
            if self.committed_dir is not None:
                return "ACTIVE input VC still holds a route commitment"
        prev: Flit | None = None
        for flit in fifo:
            if prev is None:
                # Only an ACTIVE VC may be mid-packet at its front.
                if not flit.is_head and state is not VcState.ACTIVE:
                    return (
                        "non-head flit at the front of a non-ACTIVE "
                        "input VC"
                    )
            elif prev.is_tail:
                if not flit.is_head:
                    return "non-head flit follows a tail flit"
                if flit.packet is prev.packet:
                    return "packet restarts behind its own tail"
            else:
                if flit.packet is not prev.packet:
                    return "packet interleaving within one VC"
                if flit.index != prev.index + 1:
                    return (
                        f"out-of-order flits within a packet "
                        f"({prev.index} then {flit.index})"
                    )
            prev = flit
        return None

    def __repr__(self) -> str:
        return (
            f"InputVc({self.direction.name}.{self.index}, {self.state.value}, "
            f"{len(self.fifo)}/{self.depth} flits)"
        )


def non_reset_vcs(input_vcs: dict[Direction, list[InputVc]]) -> list[InputVc]:
    """The VCs of one router that are out of their reset state.

    A VC in the reset state — IDLE, empty FIFO, ``out_direction``,
    ``out_vc`` and ``committed_dir`` all ``None`` — is legal
    (:meth:`InputVc.legality_violation` returns ``None`` for it), buffers
    nothing, claims no downstream VC and routes nothing, so
    :mod:`repro.validate` examines only the VCs listed here.
    """
    idle = VcState.IDLE
    return [
        ivc
        for vcs in input_vcs.values()
        for ivc in vcs
        if ivc.state is not idle
        or ivc.fifo
        or ivc.out_direction is not None
        or ivc.out_vc is not None
        or ivc.committed_dir is not None
    ]
