"""Virtual-channel request records produced by routing algorithms.

Algorithm 1 of the paper expresses routing decisions as
``ADD(P, v, priority)`` calls: the packet requests VC ``v`` at output port
``P`` with a given priority (one :class:`VcRequest` record carries all
of a packet's calls for one port at one priority).  The VC allocator then
grants free VCs to the highest-priority requesters.  Requests targeting
busy VCs are legal — they express willingness to *wait* on that VC (the
essence of Footprint's "wait on footprint channels") and take effect on
the cycle the VC frees, because requests are recomputed every cycle.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

from repro.topology.ports import Direction


class Priority(enum.IntEnum):
    """VC request priorities of Algorithm 1; larger is more urgent.

    In a hardware (BookSim-style) allocator, requests persist while their
    target VC is busy and the priorities decide who wins the VC at the
    instant it frees (e.g. a footprint follower's HIGH beats the LOW
    requests other packets hold on the same busy VC).  This simulator
    recomputes requests every cycle, so the same outcomes are reproduced
    by requesting *freshly freed* VCs at the priority the held request
    would have had — see :mod:`repro.routing.footprint`.
    """

    LOWEST = 0
    LOW = 1
    HIGH = 2
    HIGHEST = 3


class VcRequest(NamedTuple):
    """A request for any one of ``vcs`` at one output port, all at one
    priority — the input-first allocator needs one candidate *set* per
    priority class, not one record per VC.

    ``vcs`` is never empty (an empty class emits no record, so "no
    requests" stays ``not requests``) and usually *is* a list the output
    port caches (``idle_vcs()`` ...): read-only.
    """

    direction: Direction
    vcs: Sequence[int]
    priority: Priority

    @classmethod
    def group(
        cls, direction: Direction, vcs: Sequence[int], priority: Priority
    ) -> list["VcRequest"]:
        """The request list of one priority class: one record, or none
        when ``vcs`` is empty."""
        return [cls(direction, vcs, priority)] if vcs else []

    def __repr__(self) -> str:
        return (
            f"VcRequest({self.direction.name}, vcs={list(self.vcs)}, "
            f"{self.priority.name})"
        )
