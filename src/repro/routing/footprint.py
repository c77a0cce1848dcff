"""Footprint routing — the paper's primary contribution (Algorithm 1).

Footprint is a Duato-based minimal fully-adaptive routing algorithm that
*regulates* adaptiveness under congestion.  A *footprint VC* is a downstream
VC currently occupied by a packet to the **same destination** as the packet
being routed.  The algorithm has three steps:

1. **Legal outputs** — the minimal ports ``(P_x, P_y)`` with the DOR port as
   escape, the idle VCs and the footprint VCs of each.
2. **Port selection** — more idle VCs wins; ties broken by more footprint
   VCs; remaining ties broken randomly (Algorithm 1 lines 10-20).
3. **VC requests** — three regimes by congestion level at the chosen port
   (lines 28-43), using the threshold ``size(VC)/2``:

   * not congested (``idle >= threshold``): request all adaptive VCs at LOW
     priority — maximize buffer utilization;
   * saturated (``idle == 0``): request only footprint VCs at HIGH priority
     if any exist (the packet *waits on the footprint channel*), otherwise
     all adaptive VCs at LOW;
   * in between: idle VCs at HIGHEST, footprint VCs at HIGH, other busy
     VCs at LOW.

   The escape VC on the DOR port is always requested at LOWEST priority
   (line 45), which preserves Duato deadlock freedom.

Emulation note (see :mod:`repro.routing.requests`): this simulator's VC
allocator recomputes requests from current state every cycle rather than
holding them, so a request on a busy VC can never be granted and is not
emitted.  The observable effects of Algorithm 1's busy-VC requests are
reproduced against the *established* VC state — the state a hardware
allocator's held requests were computed from:

* the congestion regime is classified by the idle VCs that were already
  idle before this cycle's releases (``free & adaptive & ~fresh``);
* a VC freed this cycle keeps its last owner for exactly this allocation
  round; a packet to the same destination re-claims it at HIGH priority
  (its held ``ADD(P, VC_fp, High)`` winning at the freeing instant),
  while packets to other destinations may take it only at LOW priority
  (their held busy-VC requests) — and in the saturated regime a packet
  whose footprint exists elsewhere does not request it at all, which is
  precisely what keeps the congested flow from spreading to newly freed
  VCs;
* HIGH stays *below* HIGHEST, preserving Algorithm 1's preference for
  established idle VCs over footprint VCs in the intermediate regime.

The optional ``footprint_vc_limit`` implements the paper's §4.2.5
future-work knob: once a destination already owns that many footprint VCs
at a port, the packet stops claiming *new* idle VCs there and waits on its
footprint, bounding the congestion-tree branch thickness explicitly.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.routing.base import RouteContext
from repro.routing.duato import DuatoAdaptiveRouting
from repro.routing.requests import Priority, VcRequest
from repro.topology.ports import Direction

_LOCAL = Direction.LOCAL
_LOW = Priority.LOW
_HIGH = Priority.HIGH
_HIGHEST = Priority.HIGHEST


class FootprintRouting(DuatoAdaptiveRouting):
    """The Footprint routing algorithm (Algorithm 1 of the paper)."""

    name = "footprint"

    def vc_requests_at(self, ctx: RouteContext, direction: Direction):
        """Adaptive requests plus the escape request — except while the
        packet is *waiting on a live footprint channel*.

        The paper's deadlock argument (§3.4) observes that a packet
        blocked behind footprint VCs depends, through a chain of
        same-destination packets, only on the endpoint draining — so it
        cannot be blocked indefinitely and does not need the escape
        channel.  Suppressing the escape request while waiting keeps the
        congested flow off the escape subnetwork; otherwise waiting
        packets leak onto the DOR-routed escape VCs and rebuild exactly
        the thick, deterministic congestion tree (Fig. 2(a)) that
        Footprint sets out to avoid.
        """
        if direction is _LOCAL:
            return self.eject_requests(ctx)
        requests = self.vc_requests(ctx, direction)
        # Nothing to ask for and a footprint to wait on: no escape.
        if requests or not ctx.outputs[direction].footprint_mask(
            ctx.destination
        ):
            escape = self.escape_request(ctx)
            if escape is not None:
                requests.append(escape)
        return requests

    # ------------------------------------------------------------------
    # Step 2: output-port selection
    # ------------------------------------------------------------------
    def select_port(
        self, ctx: RouteContext, candidates: Sequence[Direction]
    ) -> Direction:
        outputs = ctx.outputs
        # More idle VCs wins (lines 10-13); ``tied`` keeps candidate order.
        best_idle, tied = -1, []
        for d in candidates:
            view = outputs[d]
            idle = (view.free & view.adaptive).bit_count()
            if idle > best_idle:
                best_idle, tied = idle, [d]
            elif idle == best_idle:
                tied.append(d)
        if len(tied) > 1 and best_idle < ctx.congestion_threshold:
            # Tie on idle VCs under congestion: prefer the port with more
            # footprint VCs (lines 14-17).  Per §3.2, "the footprint
            # channels are only considered or chosen if the network is
            # congested — if there is no congestion, all ports (and VCs)
            # are equally considered", so the footprint tie-break is gated
            # on the congestion threshold; without the gate, deterministic
            # flows funnel onto a single port at low load and forfeit port
            # adaptiveness.
            dst = ctx.destination
            most, contenders, tied = -1, tied, []
            for d in contenders:
                footprints = outputs[d].footprint_mask(dst).bit_count()
                if footprints > most:
                    most, tied = footprints, [d]
                elif footprints == most:
                    tied.append(d)
        if len(tied) == 1:
            return tied[0]
        return tied[ctx.rng.randrange(len(tied))]

    # ------------------------------------------------------------------
    # Step 3: VC requests by congestion regime
    # ------------------------------------------------------------------
    def vc_requests(
        self, ctx: RouteContext, direction: Direction
    ) -> list[VcRequest]:
        view = ctx.outputs[direction]
        dst = ctx.destination
        idle = view.free & view.adaptive
        fresh = idle & view.fresh
        established = idle & ~fresh
        limit = ctx.footprint_vc_limit
        limited = limit is not None and (
            view.footprint_mask(dst).bit_count() >= limit
        )

        if not limited and (
            established.bit_count() >= ctx.congestion_threshold
        ):
            # No congestion: use all adaptive VCs at flat priority;
            # waiting on footprint channels here would only add latency
            # (Algorithm 1 line 31).
            return [(direction, idle, _LOW)] if idle else []

        # Below the threshold a packet asks for up to three classes:
        # established idle VCs at HIGHEST, its own freshly freed footprint
        # VCs at HIGH (the held request winning the instant the VC
        # frees), other flows' freshly freed VCs at LOW (the held busy-VC
        # requests) — the intermediate regime, lines 40-42.
        fresh_mine = view.fresh_footprint_mask(dst) if fresh else 0
        fresh_other = fresh & ~fresh_mine
        if limited:
            # §4.2.5 extension: the destination already owns its VC quota
            # at this port — only re-claim freed footprint VCs, never new
            # ones.
            established = fresh_other = 0
        elif not established and (fresh_mine or view.footprint_mask(dst)):
            # Saturated regime (line 32: size(VC_idle) == 0 when the held
            # requests were computed) with a footprint: re-claim it if it
            # just freed (line 34), else wait on it, and do NOT grab other
            # flows' freed VCs — this is the regulation that keeps the
            # congestion-tree branch thin.  (With no footprint anywhere,
            # line 37: those VCs are fair game.)
            fresh_other = 0
        requests = []
        if established:
            requests.append((direction, established, _HIGHEST))
        if fresh_mine:
            requests.append((direction, fresh_mine, _HIGH))
        if fresh_other:
            requests.append((direction, fresh_other, _LOW))
        return requests
