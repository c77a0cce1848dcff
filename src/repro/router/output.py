"""Output-port state: downstream VC tracking, credits, and the staging FIFO.

The output port is where Footprint's information lives.  For every
downstream VC the port records:

* the credit count (free flit slots in the downstream buffer),
* whether the VC is currently *allocated* to an in-flight packet,
* the **owner destination** of that packet — the paper's per-VC
  ``log2(N)``-bit owner register (§4.4) that lets the router recognize
  *footprint VCs* by comparing a packet's destination with the owner.

The port also owns the output staging FIFO that models the crossbar's
internal speedup: the switch may deliver up to ``speedup`` flits per cycle
into the FIFO, while the link drains exactly one flit per cycle from it.
The port holds these registers, the VC allocation they feed and the
recount check; the per-flit updates — a send through the switch, a pop
onto the link, a returning credit — are made by the router's stage
methods (:class:`~repro.router.router.Router`).

VC reallocation policy (paper §4.2.1): Duato-based algorithms (DBAR,
Footprint) free a downstream VC only once the tail flit's credit has
returned (*atomic*); DOR and Odd-Even free it as soon as the tail flit has
been sent (*non-atomic*), which is why they achieve higher buffer
utilization.

Implementation note: every VC set here is one integer (bit ``v`` = VC
``v``), read by the routing algorithms for every waiting packet — the
hottest reads in the simulator: "idle" is ``free & adaptive``,
"established idle" is ``idle & ~fresh``, a count is ``int.bit_count()``.
"""

from __future__ import annotations

from repro.exceptions import AllocationError
from repro.router.flit import Flit
from repro.routing.requests import bits
from repro.topology.ports import Direction


class RouterVcEvents:
    """What changed at a router's output ports, shared by all of them so
    the router reacts to events instead of polling every port."""

    __slots__ = ("changed", "fresh_ports")

    def __init__(self) -> None:
        #: Set by every event that can change what a waiting head requests
        #: or is granted — a VC allocated or released, a fresh set
        #: cleared, the fault mask moved, a head newly waiting (credits
        #: change neither grantability nor ownership) — and cleared by
        #: the router when it evaluates an allocation round.
        self.changed = True
        #: Directions of the ports that released a VC since the last
        #: allocation round (one may appear twice; clearing is
        #: idempotent).  Directions, not ports: a port holds these events.
        self.fresh_ports: list[Direction] = []


class OutputPort:
    """State of one router output port and its downstream virtual channels.

    Also serves as the :class:`~repro.routing.base.OutputPortView` passed to
    routing algorithms.
    """

    def __init__(
        self,
        direction: Direction,
        num_vcs: int,
        downstream_depth: int,
        fifo_depth: int,
        speedup: int,
        escape_vc: int | None,
        atomic_realloc: bool,
        escape_vc2: int | None = None,
        events: RouterVcEvents | None = None,
    ) -> None:
        self.direction = direction
        self.num_vcs = num_vcs
        self.downstream_depth = downstream_depth
        self.fifo_depth = fifo_depth
        self.speedup = speedup
        self.escape_vc = escape_vc
        #: Second escape VC (dateline class 1) on multi-class topologies;
        #: ``None`` on a mesh, where one escape VC suffices.
        self.escape_vc2 = escape_vc2
        self.atomic_realloc = atomic_realloc

        self.credits = [downstream_depth] * num_vcs
        self.owner_dst: list[int | None] = [None] * num_vcs
        #: VCs bound to an in-flight packet.
        self.allocated = 0
        # Tail has been sent but (atomic mode) not yet fully credited.
        self._draining = 0
        #: VCs that may be allocated to a new packet: exactly the ones
        #: neither allocated nor draining.
        self.free = (1 << num_vcs) - 1
        #: VCs a non-escape request may target (constant).
        self.adaptive = self.free & ~sum(
            1 << vc for vc in {escape_vc, escape_vc2} if vc is not None
        )
        #: VCs released since the last VC-allocation round (a subset of
        #: ``free``).  A freed VC keeps its last owner, and during the
        #: allocation round right after its release a same-destination
        #: packet may reclaim it at HIGH priority — emulating the
        #: persistent ``ADD(P, VC_fp, High)`` request of a hardware
        #: allocator winning the VC the instant it frees.  The router
        #: clears this set after every allocation round.
        self.fresh = 0
        # Destination -> its busy adaptive VCs (never an empty mask).
        self._fp: dict[int, int] = {}
        self.fifo: list[tuple[Flit, int]] = []
        self._accepted_this_cycle = 0
        self._adaptive_credits = downstream_depth * self.adaptive.bit_count()
        #: Shared with the router's other ports (private if stand-alone).
        self.events = events if events is not None else RouterVcEvents()

    # ------------------------------------------------------------------
    # Routing-algorithm view (OutputPortView protocol)
    # ------------------------------------------------------------------
    @property
    def escape_vcs(self) -> tuple[int, ...]:
        """Escape VCs in dateline-class order: ``(vc_class0, vc_class1)``
        on a multi-class topology, ``(vc,)`` on a mesh, ``()`` on ports
        that reserve none (ejection, non-Duato algorithms)."""
        if self.escape_vc is None:
            return ()
        if self.escape_vc2 is None:
            return (self.escape_vc,)
        return (self.escape_vc, self.escape_vc2)

    def footprint_mask(self, dst: int) -> int:
        """Busy adaptive VCs owned by packets to ``dst`` (footprint VCs)."""
        return self._fp.get(dst, 0)

    def fresh_footprint_mask(self, dst: int) -> int:
        """Freshly freed adaptive VCs whose last owner was ``dst``.

        These are the VCs a waiting footprint follower wins at the instant
        they free (its held HIGH-priority request beats the LOW requests
        other packets held on the then-busy VC); the rest of
        ``fresh & adaptive`` was last owned by other destinations.
        """
        mine = 0
        owner = self.owner_dst
        fresh = self.fresh & self.adaptive
        while fresh:
            low = fresh & -fresh
            if owner[low.bit_length() - 1] == dst:
                mine |= low
            fresh ^= low
        return mine

    def clear_fresh(self) -> None:
        """Forget this round's releases (called after each VA round)."""
        if self.fresh:
            self.fresh = 0
            # Requests computed against the fresh set are now stale.
            self.events.changed = True

    def free_credit_total(self) -> int:
        """Total free downstream slots across adaptive VCs (DBAR signal)."""
        return self._adaptive_credits

    # List views, derived on read (tests, analyses).
    def idle_vcs(self) -> list[int]:
        """Adaptive VCs currently free for allocation."""
        return list(bits(self.free & self.adaptive))

    def footprint_vcs(self, dst: int) -> list[int]:
        return list(bits(self._fp.get(dst, 0)))

    # ------------------------------------------------------------------
    # VC allocation interface
    # ------------------------------------------------------------------
    def grantable(self, vc: int) -> bool:
        """Whether downstream VC ``vc`` may be allocated to a new packet."""
        return bool((self.free >> vc) & 1)

    def allocate(self, vc: int, dst: int) -> None:
        """Bind downstream VC ``vc`` to a packet destined to ``dst``."""
        bit = 1 << vc
        if not self.free & bit:
            raise AllocationError(
                f"double allocation of {self.direction.name} VC {vc}"
            )
        self.free ^= bit
        self.fresh &= ~bit
        self.allocated |= bit
        self.owner_dst[vc] = dst
        self.events.changed = True
        if self.adaptive & bit:
            fp = self._fp
            fp[dst] = fp.get(dst, 0) | bit

    def _release(self, vc: int) -> None:
        """Free downstream VC ``vc``: its tail was sent (non-atomic) or
        its last credit returned (atomic)."""
        bit = 1 << vc
        self.allocated &= ~bit
        self._draining &= ~bit
        self.free |= bit
        events = self.events
        events.changed = True
        # The owner is deliberately left stale until the next allocation
        # and the VC is marked fresh; see fresh_footprint_mask().
        if not self.fresh:
            events.fresh_ports.append(self.direction)
        self.fresh |= bit
        if self.adaptive & bit:
            fp = self._fp
            dst = self.owner_dst[vc]
            left = fp.pop(dst, 0) & ~bit
            if left:
                fp[dst] = left

    # ------------------------------------------------------------------
    def consistency_violation(self) -> str | None:
        """First broken internal invariant, or ``None``.

        Recomputes every incrementally-maintained view (free mask, fresh
        set, footprint index, adaptive credit total) from the ground
        truth.  Used by :mod:`repro.validate` between cycles, on ports
        out of their reset state; mid-cycle the accept counter may
        legitimately be non-zero.  The per-VC clauses are one mask of
        offending VCs, walked only to name the lowest.
        """
        depth = self.downstream_depth
        all_vcs = (1 << self.num_vcs) - 1
        credits = self.credits
        allocated = self.allocated
        draining = self._draining
        owner = self.owner_dst
        bad = allocated & draining
        if not self.atomic_realloc:
            bad |= draining
        if None in owner:
            for vc in bits(allocated & ~bad):
                if owner[vc] is None:
                    bad |= 1 << vc
        if min(credits) < 0 or max(credits) > depth:
            for vc, credit in enumerate(credits):
                if not 0 <= credit <= depth:
                    bad |= 1 << vc
        if bad:
            vc = (bad & -bad).bit_length() - 1
            credit = credits[vc]
            if not 0 <= credit <= depth:
                return f"VC {vc} credit count {credit} outside [0, {depth}]"
            if not (allocated >> vc) & 1:
                return f"VC {vc} draining without atomic reallocation"
            if (draining >> vc) & 1:
                return f"VC {vc} both allocated and draining"
            return f"allocated VC {vc} has no owner destination"
        if len(self.fifo) > self.fifo_depth:
            return "staging FIFO above its depth"
        if self._accepted_this_cycle:
            return (
                f"switch accept counter {self._accepted_this_cycle} not "
                f"reset between cycles"
            )
        free = all_vcs & ~(allocated | draining)
        if self.free != free:
            return (
                f"free-VC mask {self.free:#b} != {free:#b}, the VCs "
                f"neither allocated nor draining"
            )
        if self.fresh & ~free:
            return (
                f"freshly-released VCs {list(bits(self.fresh & ~free))} are "
                f"not free"
            )
        adaptive = self.adaptive
        adaptive_credits = sum(credits)
        for vc in bits(all_vcs & ~adaptive):
            adaptive_credits -= credits[vc]
        if self._adaptive_credits != adaptive_credits:
            return (
                f"adaptive credit total {self._adaptive_credits} != "
                f"recounted {adaptive_credits}"
            )
        footprints: dict[int, int] = {}
        for vc in bits(adaptive & ~free):
            dst = owner[vc]
            footprints[dst] = footprints.get(dst, 0) | 1 << vc
        if self._fp != footprints:
            return (
                f"footprint index {self._fp} != {footprints} recomputed "
                f"from the owners of the busy adaptive VCs"
            )
        return None

    def __repr__(self) -> str:
        return (
            f"OutputPort({self.direction.name}, "
            f"busy={self.allocated.bit_count()}/"
            f"{self.num_vcs}, fifo={len(self.fifo)})"
        )
