"""Virtual-channel request records produced by routing algorithms.

Algorithm 1 of the paper expresses routing decisions as
``ADD(P, v, priority)`` calls: the packet requests VC ``v`` at output port
``P`` with a given priority (one ``(direction, mask, priority)`` record
— a plain tuple, the shape :class:`VcRequest` names — carries all of a
packet's calls for one port at one priority).  The VC allocator then
grants free VCs to the highest-priority requesters.  Requests targeting
busy VCs are legal — they express willingness to *wait* on that VC (the
essence of Footprint's "wait on footprint channels") and take effect on
the cycle the VC frees, because requests are recomputed every cycle.

A set of VCs is one integer everywhere on the RC/VA path, bit ``v``
standing for VC ``v`` — the bit-vector the paper's router feeds its
allocator.  :func:`bits` names the members: the allocator's tie-break
draw indexes it; tests, analyses and messages list it.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from repro.topology.ports import Direction


@functools.lru_cache(maxsize=1 << 12)
def bits(mask: int) -> tuple[int, ...]:
    """The VCs of ``mask``, ascending — so ``bits(mask)[k]`` is the k-th
    set bit.  Memoized: a run meets the same few hundred masks at every
    allocation (bounded, and the tuples are immutable)."""
    return tuple(v for v in range(mask.bit_length()) if (mask >> v) & 1)


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
    """A request for any one VC of ``mask`` at one output port, all at
    one priority — the input-first allocator needs one candidate *set*
    per priority class, not one record per VC.

    ``mask`` is never zero: an empty class emits no record, so "no
    requests" stays ``not requests``.

    The routing algorithms emit the bare tuple — the allocator unpacks,
    and a named constructor is a Python call per record per evaluated
    head; this class names the shape for tests, analyses and messages.
    """

    direction: Direction
    mask: int
    priority: Priority

    @property
    def vcs(self) -> tuple[int, ...]:
        """The requested VCs in allocator candidate order (ascending)."""
        return bits(self.mask)

    def __repr__(self) -> str:
        return (
            f"VcRequest({self.direction.name}, vcs={list(self.vcs)}, "
            f"{self.priority.name})"
        )
