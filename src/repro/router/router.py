"""The input-queued virtual-channel router.

Per-cycle pipeline (invoked in this order by the engine):

1. **Link traversal (LT)** — each output port pops one flit from its
   staging FIFO onto the link; the engine delivers it to the downstream
   router (or endpoint sink) at the start of the next cycle.
2. **Route computation + VC allocation (RC/VA)** — every input VC in the
   ROUTING state recomputes its VC requests through the configured routing
   algorithm (Footprint's congestion view is dynamic, so requests are fresh
   every cycle), then the priority-based VC allocator grants free
   downstream VCs.
3. **Switch allocation + switch traversal (SA/ST)** — each input port
   forwards at most one flit per cycle; each output port accepts up to
   ``internal_speedup`` flits into its staging FIFO, subject to downstream
   credits.  Port service order rotates each cycle and a per-port
   round-robin arbiter picks among the port's eligible VCs.

Credits for flits popped from input buffers are handed back to the engine,
which delivers them upstream with one cycle of latency.

The router also samples the paper's §4.3 blocking metrics: whenever a
ROUTING input VC fails to obtain a grant, the busy/footprint VC mix at its
requested ports is accumulated so that *purity of blocking* and the HoL
degree can be reported (Fig. 10 b, c).
"""

from __future__ import annotations

import random

from repro.exceptions import FlowControlError
from repro.router.allocator import allocate_vcs, verify_grants
from repro.router.arbiter import RoundRobinArbiter
from repro.router.blocking import BlockingStats
from repro.router.flit import Flit
from repro.router.output import OutputPort, RouterVcEvents
from repro.router.vcstate import InputVc, VcState
from repro.routing.base import RouteContext, RoutingAlgorithm
from repro.routing.requests import VcRequest
from repro.sim.config import SimulationConfig
from repro.topology.base import Topology
from repro.topology.ports import Direction


def _not_a_head(ivc: InputVc, front: Flit) -> FlowControlError:
    """A packet must start with its head: the error for a VC going from
    IDLE to ROUTING with anything else at its front."""
    return FlowControlError(
        f"non-head flit {front!r} at front of idle VC "
        f"{ivc.direction.name}.{ivc.index}"
    )


class Router:
    """One mesh router.

    The stage methods the engine calls do each flit's bookkeeping in
    place — buffer write, switch allocation and traversal, link
    traversal, credit return — on the registers :class:`InputVc` and
    :class:`OutputPort` hold: a helper call per flit per stage is what
    the simulator's time goes to (DESIGN §3a).
    """

    def __init__(
        self,
        node: int,
        mesh: Topology,
        config: SimulationConfig,
        routing: RoutingAlgorithm,
        rng: random.Random,
    ) -> None:
        self.node = node
        self.mesh = mesh
        self.config = config
        self.routing = routing
        self.rng = rng

        escape_vc = 0 if routing.uses_escape else None
        # Multi-class topologies (torus) reserve one escape VC per
        # dateline class: VC 0 carries class 0, VC 1 carries class 1.
        escape_vc2 = (
            1 if routing.uses_escape and mesh.num_vc_classes > 1 else None
        )
        ports = mesh.router_ports(node)
        self._events = RouterVcEvents()
        self.input_vcs: dict[Direction, list[InputVc]] = {
            d: [
                InputVc(d, v, config.vc_buffer_depth)
                for v in range(config.num_vcs)
            ]
            for d in ports
        }
        self.output_ports: dict[Direction, OutputPort] = {
            d: OutputPort(
                direction=d,
                num_vcs=config.num_vcs,
                downstream_depth=config.vc_buffer_depth,
                fifo_depth=config.output_buffer_depth,
                speedup=config.internal_speedup,
                # The ejection port needs no escape VC: delivery cannot
                # deadlock, and reserving one would waste ejection
                # bandwidth.
                escape_vc=escape_vc if d is not Direction.LOCAL else None,
                atomic_realloc=routing.atomic_vc_reallocation,
                escape_vc2=(
                    escape_vc2 if d is not Direction.LOCAL else None
                ),
                events=self._events,
            )
            for d in ports
        }
        self._port_order = list(ports)
        self._sa_port_offset = node % max(1, len(ports))
        self._vc_arbiters: dict[Direction, RoundRobinArbiter] = {
            d: RoundRobinArbiter(config.num_vcs) for d in ports
        }
        self._congestion_threshold = max(
            1, int(config.congestion_threshold * config.num_vcs)
        )
        # A single reusable context object: route() is called for every
        # waiting packet every cycle, so per-call construction is avoided.
        self._ctx = RouteContext(
            mesh=mesh,
            current=node,
            destination=node,
            source=node,
            outputs=self.output_ports,
            num_vcs=config.num_vcs,
            congestion_threshold=self._congestion_threshold,
            footprint_vc_limit=config.footprint_vc_limit,
            rng=rng,
        )
        # Flits currently inside the router (input FIFOs + output FIFOs);
        # lets the engine skip completely quiescent routers.
        self.inflight = 0
        # Flits staged in output FIFOs only; lets the engine skip link
        # traversal for routers whose flits are all waiting in input VCs.
        self.staged_flits = 0
        # Set when a credit arrives; a returning credit can release an
        # output VC (atomic reallocation), so the router must run one
        # allocation round that cycle even with no flits buffered — the
        # engine's active-set scheduler checks this flag and clears it.
        self.credit_pending = False
        # Input VCs in the ROUTING state, keyed by (direction, vc index) so
        # iteration order is deterministic (insertion order).  Maintained
        # incrementally instead of scanning every VC every cycle.
        self._pending: dict[tuple[int, int], InputVc] = {}
        # Per-input-port bitmask of VCs with buffered flits (bit v set ⟺
        # input_vcs[d][v].fifo non-empty), indexed by Direction, plus the
        # total count across all input FIFOs.  Maintained on receive/pop
        # so switch traversal visits only occupied VCs instead of
        # scanning all num_vcs per port.
        self._occupied_masks = [0] * 5
        self.buffered_input_flits = 0
        self.blocking = BlockingStats()
        self._sample_blocking = False
        # Telemetry probe sink (a TelemetryHub) or None.  Probe sites are
        # guarded by one hoisted is-not-None check so a run without
        # telemetry pays nothing beyond the attribute read.
        self.probe = None
        # Validation hook (an InvariantChecker running ``vc_states``) or
        # None; when set, each VC-allocation round's grants are verified
        # before being applied.
        self.validator = None
        # Fault awareness: bitmask of output directions whose link (or
        # downstream router) is currently dead, mirrored into the route
        # context so algorithms can steer around it.
        self.fault_blocked = 0

    # ------------------------------------------------------------------
    # Engine-facing state changes
    # ------------------------------------------------------------------
    def receive_flit(self, direction: Direction, vc: int, flit: Flit) -> None:
        """Buffer write: a flit arrives through input port ``direction``.

        Upstream sent it against a credit, so the VC has room; a head
        reaching the front of an idle VC starts waiting for route
        computation and VC allocation.
        """
        ivc = self.input_vcs[direction][vc]
        fifo = ivc.fifo
        if len(fifo) >= ivc.depth:
            raise FlowControlError(
                f"input VC {direction.name}.{vc} overflow: "
                f"credit protocol violated"
            )
        fifo.append(flit)
        self.inflight += 1
        self.buffered_input_flits += 1
        self._occupied_masks[direction] |= 1 << vc
        if ivc.state is VcState.IDLE:
            front = fifo[0]
            if not front.is_head:
                raise _not_a_head(ivc, front)
            ivc.state = VcState.ROUTING
            self._pending[(direction, vc)] = ivc
            self._events.changed = True

    def receive_credit(self, direction: Direction, vc: int) -> None:
        """Credit return: a slot of downstream VC ``vc`` at output port
        ``direction`` freed."""
        port = self.output_ports[direction]
        count = port.credits[vc] = port.credits[vc] + 1
        if count > port.downstream_depth:
            raise FlowControlError(
                f"credit overflow on {direction.name} VC {vc}"
            )
        bit = 1 << vc
        if port.adaptive & bit:
            port._adaptive_credits += 1
        if port._draining & bit and count == port.downstream_depth:
            # The last credit of an atomic drain releases the VC; an
            # allocation round must run this cycle to observe (and then
            # clear) the freshly-released set.
            port._release(vc)
            self.credit_pending = True

    def enable_blocking_sampling(self, enabled: bool) -> None:
        """Toggle the purity-of-blocking instrumentation."""
        self._sample_blocking = enabled

    def set_fault_mask(self, mask: int) -> None:
        """Update the set of dead output directions (engine fault hook).

        Packets still choosing a route (ROUTING state) that had committed
        to a now-dead port are released to re-route; packets already
        granted a VC (ACTIVE) keep their path — wormhole streams are
        never torn mid-packet, they simply stall until a heal.
        """
        if mask == self.fault_blocked:
            return
        self.fault_blocked = mask
        # Requests are filtered against the mask, and a heal changes
        # nothing else.
        self._events.changed = True
        self._ctx.dead_ports = mask
        if mask:
            for ivc in self._pending.values():
                committed = ivc.committed_dir
                if committed is not None and (mask >> committed) & 1:
                    ivc.committed_dir = None

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def link_traversal(
        self, blocked_mask: int = 0
    ) -> list[tuple[Direction, int, Flit]]:
        """Pop at most one flit per output port onto its link.

        Output directions set in ``blocked_mask`` (dead links or dead
        downstream routers) launch nothing; their staged flits wait in
        the output FIFO until the fault heals.
        """
        if self.inflight == 0:
            return []
        sent: list[tuple[Direction, int, Flit]] = []
        for direction, port in self.output_ports.items():
            fifo = port.fifo
            if not fifo or blocked_mask and (blocked_mask >> direction) & 1:
                continue
            flit, vc = fifo.pop(0)
            sent.append((direction, vc, flit))
        self.inflight -= len(sent)
        self.staged_flits -= len(sent)
        return sent

    def route_and_allocate(self) -> None:
        """Recompute routes for waiting packets and run VC allocation."""
        if self.inflight == 0 or not self._pending:
            self._clear_fresh()
            return

        # A round evaluates the waiting heads only if something they can
        # see changed since the last evaluated round: a VC allocated or
        # released, a fresh set cleared, the dead-port mask, a new head.
        # Otherwise every head asked for nothing grantable last time (a
        # grantable request always yields at least one grant, which is
        # such a change), drew no random number, and would again.
        events = self._events
        if not events.changed:
            if self._sample_blocking:
                self._sample_blocked()
            return
        events.changed = False

        requests: list[tuple[InputVc, list[VcRequest]]] = []
        # Looked up per round, not stored: instrumentation wraps the
        # routing methods on their class.
        routing = self.routing
        vc_requests_at = routing.vc_requests_at
        blocked = self.fault_blocked
        ctx = self._ctx
        pending = self._pending
        for ivc in pending.values():
            head = ivc.fifo[0]
            assert head.is_head
            packet = head.packet
            ctx.destination = packet.dst
            ctx.source = packet.src
            committed = ivc.committed_dir
            if committed is None:
                # Route computation: runs once per packet per router;
                # the port choice is a commitment (BookSim RC stage).
                committed = ivc.committed_dir = routing.select_output(ctx)
            reqs = vc_requests_at(ctx, committed)
            if blocked:
                # No VC grants toward dead ports — covers escape
                # requests whose DOR port happens to be dead, too.
                reqs = [r for r in reqs if not (blocked >> r[0]) & 1]
            if reqs:
                requests.append((ivc, reqs))

        if requests:
            output_ports = self.output_ports
            grants = allocate_vcs(requests, output_ports, self.rng)
            if self.validator is not None:
                verify_grants(grants, output_ports, node=self.node)
            probe = self.probe
            for ivc, direction, out_vc, _priority in grants:
                head = ivc.fifo[0]
                dst = head.packet.dst
                port = output_ports[direction]
                if probe is not None:
                    # The owner register still holds the VC's previous
                    # owner here (allocate() overwrites it): equality
                    # with the new packet's destination is a footprint
                    # hit — the reuse event Footprint engineers for.
                    probe.vc_alloc(
                        self.node,
                        direction,
                        out_vc,
                        head,
                        port.owner_dst[out_vc] == dst,
                    )
                port.allocate(out_vc, dst)
                if ivc.state is not VcState.ROUTING:
                    raise FlowControlError(
                        "VC grant to a non-routing input VC"
                    )
                ivc.state = VcState.ACTIVE
                ivc.out_direction = direction
                ivc.out_vc = out_vc
                ivc.committed_dir = None
                del pending[(ivc.direction, ivc.index)]

        if self._sample_blocking and self._pending:
            self._sample_blocked()

        # This allocation round has consumed the freshly-freed-VC
        # information; freed VCs become plain idle from the next round on.
        self._clear_fresh()

    def clear_fresh_only(self) -> None:
        """End-of-round cleanup for a credit-woken router with no flits:
        the empty-router early-out of :meth:`route_and_allocate`."""
        self._clear_fresh()

    def _clear_fresh(self) -> None:
        """Forget the releases this allocation round has consumed, so
        every fresh set is seen by exactly one round.  (Not folded into
        :meth:`clear_fresh_only`: instrumentation wrapping that public
        name must count the engine's calls only.)"""
        fresh_ports = self._events.fresh_ports
        if fresh_ports:
            ports = self.output_ports
            for direction in fresh_ports:
                ports[direction].clear_fresh()
            fresh_ports.clear()

    def _sample_blocked(self) -> None:
        """Sample busy/footprint VC mix for packets that failed allocation.

        Every input VC still awaiting a grant after allocation counts as
        one blocking event; the busy VCs at its candidate (productive)
        output ports are classified into footprint VCs (same destination)
        and others — the raw material of the paper's purity-of-blocking
        analysis (§4.3).
        """
        blocking = self.blocking
        for ivc in self._pending.values():
            head = ivc.front()
            if head is None or ivc.committed_dir is None:
                continue
            port = self.output_ports[ivc.committed_dir]
            blocking.blocking_events += 1
            blocking.busy_vc_samples += (
                port.adaptive & ~port.free
            ).bit_count()
            blocking.footprint_vc_samples += port.footprint_mask(
                head.dst
            ).bit_count()

    def switch_traversal(self) -> list[tuple[Direction, int]]:
        """Forward flits from input buffers into output staging FIFOs.

        Returns the ``(input direction, vc)`` of every popped flit so the
        engine can return the corresponding upstream credits.
        """
        if self.inflight == 0:
            return []
        credits: list[tuple[Direction, int]] = []
        port_order = self._port_order
        n_ports = len(port_order)
        # Rotate the port service order each cycle (round-robin switch
        # arbitration across input ports).  The rotation happens whenever
        # flits are inflight — even if none are in input FIFOs — to stay
        # bit-identical with the scan-everything baseline.
        offset = self._sa_port_offset = (self._sa_port_offset + 1) % n_ports
        if self.buffered_input_flits == 0:
            return []
        occupied_masks = self._occupied_masks
        input_vcs = self.input_vcs
        outputs = self.output_ports
        active = VcState.ACTIVE
        probe = self.probe
        tracing = probe is not None and probe.tracing
        # Ports accepting a flit this cycle, each listed once: the
        # speedup limit is per cycle.
        sent_to: list[OutputPort] = []
        for i in range(n_ports):
            direction = port_order[(offset + i) % n_ports]
            occupied = occupied_masks[direction]
            if not occupied:
                continue
            # Switch allocation: round-robin among the occupied VCs whose
            # flit can cross now — a granted output VC with a downstream
            # credit, and room in that port's FIFO and speedup.
            vcs = input_vcs[direction]
            sendable = 0
            rest = occupied
            while rest:
                low = rest & -rest
                ivc = vcs[low.bit_length() - 1]
                if ivc.state is active:
                    port = outputs[ivc.out_direction]
                    if (
                        port.credits[ivc.out_vc] > 0
                        and port._accepted_this_cycle < port.speedup
                        and len(port.fifo) < port.fifo_depth
                    ):
                        sendable |= low
                rest ^= low
            if not sendable:
                continue
            ivc = vcs[self._vc_arbiters[direction].grant_mask(sendable)]
            index = ivc.index
            out_direction = ivc.out_direction
            out_vc = ivc.out_vc

            # Input buffer read; the tail hands the input VC back.
            fifo = ivc.fifo
            if not fifo:
                raise FlowControlError("pop from empty input VC")
            flit = fifo.pop(0)
            tail = flit.is_tail
            if tail:
                ivc.state = VcState.IDLE
                ivc.out_direction = ivc.out_vc = None
                if fifo:
                    # The next packet's head is already queued behind.
                    front = fifo[0]
                    if not front.is_head:
                        raise _not_a_head(ivc, front)
                    ivc.state = VcState.ROUTING
                    self._pending[(direction, index)] = ivc
                    self._events.changed = True
            self.buffered_input_flits -= 1
            if not fifo:
                occupied_masks[direction] = occupied & ~(1 << index)

            # Switch traversal into the output staging FIFO, against a
            # downstream credit.
            port = outputs[out_direction]
            port_credits = port.credits
            if port_credits[out_vc] <= 0:
                raise FlowControlError(
                    f"credit underflow on {out_direction.name} VC {out_vc}"
                )
            accepted = port._accepted_this_cycle
            if accepted >= port.speedup or len(port.fifo) >= port.fifo_depth:
                raise FlowControlError(
                    f"output FIFO overflow on {out_direction.name}"
                )
            port_credits[out_vc] -= 1
            bit = 1 << out_vc
            if port.adaptive & bit:
                port._adaptive_credits -= 1
            port.fifo.append((flit, out_vc))
            port._accepted_this_cycle = accepted + 1
            if not accepted:
                sent_to.append(port)
            if tail:
                if port.atomic_realloc:
                    # Keep the VC reserved (and its owner visible as a
                    # footprint) until all credits return; this flit
                    # holds one, so the drain cannot complete here.
                    port.allocated &= ~bit
                    port._draining |= bit
                else:
                    port._release(out_vc)
            self.staged_flits += 1
            if tracing:
                probe.switch(self.node, direction, flit, out_direction, out_vc)
            credits.append((direction, index))
        for port in sent_to:
            port._accepted_this_cycle = 0
        return credits

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total flits buffered in this router (inputs + output FIFOs)."""
        total = sum(
            len(ivc.fifo) for vcs in self.input_vcs.values() for ivc in vcs
        )
        total += sum(len(p.fifo) for p in self.output_ports.values())
        return total

    def __repr__(self) -> str:
        return f"Router(n{self.node}, inflight={self.inflight})"
