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

VC reallocation policy (paper §4.2.1): Duato-based algorithms (DBAR,
Footprint) free a downstream VC only once the tail flit's credit has
returned (*atomic*); DOR and Odd-Even free it as soon as the tail flit has
been sent (*non-atomic*), which is why they achieve higher buffer
utilization.

Implementation note: the idle-VC list and the per-destination footprint
index are maintained incrementally — routing algorithms query them for
every waiting packet every cycle, which makes them the hottest reads in
the simulator.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.exceptions import AllocationError, FlowControlError
from repro.router.flit import Flit
from repro.topology.ports import Direction


class RouterVcEvents:
    """What changed at a router's output ports, shared by all of them so
    the router reacts to events instead of polling every port."""

    __slots__ = ("version", "fresh_ports")

    def __init__(self) -> None:
        #: Bumped whenever VC grantability or ownership changes; routing
        #: decisions are cached against it (credits do not affect which
        #: VCs are grantable, so credit flow leaves it unchanged).
        self.version = 0
        #: Ports that released a VC since the last allocation round (a
        #: port may appear twice; clearing is idempotent).
        self.fresh_ports: list[OutputPort] = []


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
        self.allocated = [False] * num_vcs
        self.owner_dst: list[int | None] = [None] * num_vcs
        # Tail has been sent but (atomic mode) not yet fully credited.
        self._draining = [False] * num_vcs
        self.fifo: deque[tuple[Flit, int]] = deque()
        self._accepted_this_cycle = 0

        self._adaptive = [
            v for v in range(num_vcs) if v != escape_vc and v != escape_vc2
        ]
        # Incrementally maintained views.
        self._idle_cache: list[int] | None = list(self._adaptive)
        #: Busy (allocated or draining) adaptive VCs, maintained
        #: incrementally; recounted by :meth:`consistency_violation`.
        self.busy_count = 0
        self._fp_index: dict[int, list[int]] = {}
        self._adaptive_credits = downstream_depth * len(self._adaptive)
        #: Shared with the router's other ports (private if stand-alone).
        self.events = events if events is not None else RouterVcEvents()
        #: VCs released since the last VC-allocation round.  A freed VC
        #: keeps its last owner, and during the allocation round right
        #: after its release a same-destination packet may reclaim it at
        #: HIGH priority — emulating the persistent ``ADD(P, VC_fp, High)``
        #: request of a hardware allocator winning the VC the instant it
        #: frees.  The router clears this set after every allocation round.
        self.fresh_released: set[int] = set()

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

    def adaptive_vcs(self) -> list[int]:
        """VCs a non-escape request may target (do not mutate)."""
        return self._adaptive

    def idle_vcs(self) -> list[int]:
        """Adaptive VCs currently free for allocation (do not mutate)."""
        cache = self._idle_cache
        if cache is None:
            cache = self._idle_cache = self.grantable_among(self._adaptive)
        return cache

    def footprint_vcs(self, dst: int) -> list[int]:
        """Busy adaptive VCs owned by packets to ``dst`` (footprint VCs).

        The returned list is an internal index; do not mutate.
        """
        return self._fp_index.get(dst, _EMPTY)

    def established_idle_vcs(self) -> list[int]:
        """Idle adaptive VCs that were already idle before this cycle's
        releases — the idle set a hardware allocator's *held* requests were
        computed against."""
        if not self.fresh_released:
            return self.idle_vcs()
        fresh = self.fresh_released
        return [v for v in self.idle_vcs() if v not in fresh]

    def fresh_footprint_vcs(self, dst: int) -> list[int]:
        """Freshly freed adaptive VCs whose last owner was ``dst``.

        These are the VCs a waiting footprint follower wins at the instant
        they free (its held HIGH-priority request beats the LOW requests
        other packets held on the then-busy VC).
        """
        return self._fresh_vcs(dst, True)

    def fresh_other_vcs(self, dst: int) -> list[int]:
        """Freshly freed adaptive VCs last owned by other destinations."""
        return self._fresh_vcs(dst, False)

    def _fresh_vcs(self, dst: int, mine: bool) -> list[int]:
        fresh = self.fresh_released
        if not fresh:
            return _EMPTY
        owner = self.owner_dst
        # Ascending VC order, independent of set-iteration internals:
        # request order feeds the allocator's tie-break draws, so it must
        # be deterministic and engine-representation-agnostic (the vector
        # engine reconstructs request lists in ascending-VC order).
        return [
            v
            for v in self.idle_vcs()
            if v in fresh and (owner[v] == dst) is mine
        ]

    def clear_fresh(self) -> None:
        """Forget this round's releases (called after each VA round)."""
        if self.fresh_released:
            self.fresh_released.clear()
            # Requests computed against the fresh set are now stale.
            self.events.version += 1

    def free_credit_total(self) -> int:
        """Total free downstream slots across adaptive VCs (DBAR signal)."""
        return self._adaptive_credits

    # ------------------------------------------------------------------
    # VC allocation interface
    # ------------------------------------------------------------------
    def grantable(self, vc: int) -> bool:
        """Whether downstream VC ``vc`` may be allocated to a new packet."""
        return not self.allocated[vc] and not self._draining[vc]

    def grantable_among(self, vcs: Sequence[int]) -> list[int]:
        """The grantable members of ``vcs``, in order (one allocator
        request record's candidates)."""
        allocated = self.allocated
        draining = self._draining
        return [v for v in vcs if not (allocated[v] or draining[v])]

    def allocate(self, vc: int, dst: int) -> None:
        """Bind downstream VC ``vc`` to a packet destined to ``dst``."""
        if not self.grantable(vc):
            raise AllocationError(
                f"double allocation of {self.direction.name} VC {vc}"
            )
        self.allocated[vc] = True
        self.owner_dst[vc] = dst
        self.events.version += 1
        self.fresh_released.discard(vc)
        if vc != self.escape_vc and vc != self.escape_vc2:
            self._idle_cache = None
            self.busy_count += 1
            self._fp_index.setdefault(dst, []).append(vc)

    def _release(self, vc: int) -> None:
        dst = self.owner_dst[vc]
        self.allocated[vc] = False
        self._draining[vc] = False
        events = self.events
        events.version += 1
        # The owner is deliberately left stale until the next allocation
        # and the VC is marked freshly released; see fresh_footprint_vcs().
        if not self.fresh_released:
            events.fresh_ports.append(self)
        self.fresh_released.add(vc)
        if vc != self.escape_vc and vc != self.escape_vc2:
            self._idle_cache = None
            self.busy_count -= 1
            owners = self._fp_index.get(dst)
            if owners is not None:
                owners.remove(vc)
                if not owners:
                    del self._fp_index[dst]

    # ------------------------------------------------------------------
    # Switch / link traversal
    # ------------------------------------------------------------------
    def accept_capacity(self) -> int:
        """Flits the switch may still deliver to this port this cycle."""
        space = self.fifo_depth - len(self.fifo)
        remaining = self.speedup - self._accepted_this_cycle
        return max(0, min(remaining, space))

    def can_send(self, vc: int) -> bool:
        """Whether a flit on ``vc`` can traverse the switch right now."""
        return (
            self.credits[vc] > 0
            and self._accepted_this_cycle < self.speedup
            and len(self.fifo) < self.fifo_depth
        )

    def send(self, flit: Flit, vc: int) -> None:
        """Commit a flit to the staging FIFO, consuming a downstream credit."""
        if self.credits[vc] <= 0:
            raise FlowControlError(
                f"credit underflow on {self.direction.name} VC {vc}"
            )
        if (
            self._accepted_this_cycle >= self.speedup
            or len(self.fifo) >= self.fifo_depth
        ):
            raise FlowControlError(
                f"output FIFO overflow on {self.direction.name}"
            )
        self.credits[vc] -= 1
        if vc != self.escape_vc and vc != self.escape_vc2:
            self._adaptive_credits -= 1
        self.fifo.append((flit, vc))
        self._accepted_this_cycle += 1
        if flit.is_tail:
            if self.atomic_realloc:
                # Keep the VC reserved (and its owner visible as a
                # footprint) until all credits return.
                self.allocated[vc] = False
                self._draining[vc] = True
                self._check_drained(vc)
            else:
                self._release(vc)

    def pop_link(self) -> tuple[Flit, int] | None:
        """Pop one flit onto the link (one per cycle); ``None`` if empty."""
        if not self.fifo:
            return None
        return self.fifo.popleft()

    def credit_return(self, vc: int) -> bool:
        """A downstream buffer slot freed; finish atomic drains if complete.

        Returns ``True`` when the credit completed an atomic drain and
        released the VC — the one credit event that requires an allocation
        round at the owning router (to consume and clear the
        freshly-released set); plain counter updates do not.
        """
        self.credits[vc] += 1
        if self.credits[vc] > self.downstream_depth:
            raise FlowControlError(
                f"credit overflow on {self.direction.name} VC {vc}"
            )
        if vc != self.escape_vc and vc != self.escape_vc2:
            self._adaptive_credits += 1
        if self._draining[vc]:
            return self._check_drained(vc)
        return False

    def _check_drained(self, vc: int) -> bool:
        if self.credits[vc] == self.downstream_depth:
            self._release(vc)
            return True
        return False

    def new_cycle(self) -> None:
        """Reset the per-cycle switch acceptance counter."""
        self._accepted_this_cycle = 0

    # ------------------------------------------------------------------
    def consistency_violation(self) -> str | None:
        """First broken internal invariant, or ``None``.

        Recomputes every incrementally-maintained view (idle cache, busy
        count, footprint index, adaptive credit total) from the ground
        truth.  Used by :mod:`repro.validate` between cycles; mid-cycle
        the caches may legitimately lag the arrays.
        """
        depth = self.downstream_depth
        if (
            self.credits.count(depth) == self.num_vcs
            and not any(self.allocated)
            and not any(self._draining)
            and not self.fifo
            and not self._accepted_this_cycle
            and not self._fp_index
            and not self.busy_count
            and self._adaptive_credits == depth * len(self._adaptive)
            and (
                self._idle_cache is None
                or self._idle_cache == self._adaptive
            )
        ):
            # The reset state: every recount below would reproduce
            # exactly these values.
            return None
        credits = self.credits
        allocated = self.allocated
        draining = self._draining
        adaptive = self._adaptive
        for vc, credit in enumerate(credits):
            if not 0 <= credit <= depth:
                return f"VC {vc} credit count {credit} outside [0, {depth}]"
            if allocated[vc]:
                if draining[vc]:
                    return f"VC {vc} both allocated and draining"
                if self.owner_dst[vc] is None:
                    return f"allocated VC {vc} has no owner destination"
            elif draining[vc] and not self.atomic_realloc:
                return f"VC {vc} draining without atomic reallocation"
        if len(self.fifo) > self.fifo_depth:
            return "staging FIFO above its depth"
        if self._accepted_this_cycle:
            return (
                f"switch accept counter {self._accepted_this_cycle} not "
                f"reset between cycles"
            )
        busy = [v for v in adaptive if allocated[v] or draining[v]]
        if self.busy_count != len(busy):
            return (
                f"busy count {self.busy_count} != recounted "
                f"{len(busy)} busy adaptive VCs"
            )
        adaptive_credits = sum(credits[v] for v in adaptive)
        if self._adaptive_credits != adaptive_credits:
            return (
                f"adaptive credit total {self._adaptive_credits} != "
                f"recounted {adaptive_credits}"
            )
        if self._idle_cache is not None:
            idle = [v for v in adaptive if v not in busy]
            if self._idle_cache != idle:
                return f"idle-VC cache {self._idle_cache} != recounted {idle}"
        indexed = set()
        for dst, vcs in self._fp_index.items():
            if not vcs:
                return f"empty footprint-index entry for destination {dst}"
            for v in vcs:
                if v == self.escape_vc or v == self.escape_vc2:
                    return f"escape VC {v} in the footprint index"
                if self.owner_dst[v] != dst:
                    return (
                        f"footprint index lists VC {v} under destination "
                        f"{dst} but its owner is {self.owner_dst[v]}"
                    )
                if v in indexed:
                    return f"VC {v} indexed twice in the footprint index"
                indexed.add(v)
        if indexed != set(busy):
            return (
                f"footprint index covers VCs {sorted(indexed)} but the "
                f"busy adaptive VCs are {sorted(busy)}"
            )
        return None

    def __repr__(self) -> str:
        return (
            f"OutputPort({self.direction.name}, busy={sum(self.allocated)}/"
            f"{self.num_vcs}, fifo={len(self.fifo)})"
        )


#: Shared empty list returned for destinations with no footprint VCs.
_EMPTY: list[int] = []
