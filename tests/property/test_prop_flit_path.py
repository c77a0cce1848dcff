"""The router's stage methods must equal the per-flit helpers they absorbed.

``Router.receive_flit``, ``receive_credit``, ``link_traversal``,
``switch_traversal`` and the grant loop of ``route_and_allocate`` do each
flit's bookkeeping in place.  The composition they replaced — the
``InputVc`` helpers ``push`` / ``refresh_state`` / ``grant`` / ``pop``,
the ``OutputPort`` helpers ``can_send`` / ``send`` / ``pop_link`` /
``credit_return`` / ``_check_drained`` / ``new_cycle`` and the router's
``_pick_sa_winner`` — is kept here verbatim (a helper's ``self`` is its
first argument) behind the same stage methods, as ``ParentRouter``.

Both routers take the same hypothesis-drawn sequence of operations —
whole packets written into input VCs, credit returns, fault-mask
changes, allocation rounds, switch and link traversals in any order,
and the three errors a broken upstream can force: an input VC overflow,
a credit overflow and a non-head flit where a packet must start.  After
every operation they must agree on the returned lists, the raised
exception (type and message), every FIFO, credit, mask and counter,
the arbiter pointers and accept counters, the probe calls and
``rng.getstate()``.  An exception ends the run, as it ends a simulation.
"""

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.exceptions import AllocationError, FlowControlError
from repro.router.allocator import allocate_vcs, verify_grants
from repro.router.flit import Packet
from repro.router.router import Router
from repro.router.vcstate import VcState
from repro.routing.registry import create_routing
from repro.sim.config import SimulationConfig
from repro.sim.rng import RngStreams
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction

from tests.property.test_prop_router_flag import (
    CREDIT,
    DEPTH,
    FAULT,
    NODE,
    NUM_VCS,
    RECEIVE,
    ROUND,
)


# ----------------------------------------------------------------------
# The parent commit's per-flit composition, verbatim.
# ----------------------------------------------------------------------
def push(self, flit):
    """Accept an arriving flit (upstream guaranteed space via credits)."""
    if len(self.fifo) >= self.depth:
        raise FlowControlError(
            f"input VC {self.direction.name}.{self.index} overflow: "
            f"credit protocol violated"
        )
    self.fifo.append(flit)


def refresh_state(self):
    """Promote IDLE to ROUTING when a head flit reaches the front."""
    if self.state is VcState.IDLE and self.fifo:
        front = self.fifo[0]
        if not front.is_head:
            raise FlowControlError(
                f"non-head flit {front!r} at front of idle VC "
                f"{self.direction.name}.{self.index}"
            )
        self.state = VcState.ROUTING


def grant(self, out_direction, out_vc):
    """Record a VC-allocation grant."""
    if self.state is not VcState.ROUTING:
        raise FlowControlError("VC grant to a non-routing input VC")
    self.state = VcState.ACTIVE
    self.out_direction = out_direction
    self.out_vc = out_vc
    self.committed_dir = None


def pop(self):
    """Remove the front flit (switch traversal); handles tail release."""
    if not self.fifo:
        raise FlowControlError("pop from empty input VC")
    flit = self.fifo.pop(0)
    if flit.is_tail:
        self.state = VcState.IDLE
        self.out_direction = None
        self.out_vc = None
        self.committed_dir = None
        refresh_state(self)
    return flit


def can_send(self, vc):
    """Whether a flit on ``vc`` can traverse the switch right now."""
    return (
        self.credits[vc] > 0
        and self._accepted_this_cycle < self.speedup
        and len(self.fifo) < self.fifo_depth
    )


def send(self, flit, vc):
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
    if (self.adaptive >> vc) & 1:
        self._adaptive_credits -= 1
    self.fifo.append((flit, vc))
    self._accepted_this_cycle += 1
    if flit.is_tail:
        if self.atomic_realloc:
            # Keep the VC reserved (and its owner visible as a
            # footprint) until all credits return.
            self.allocated &= ~(1 << vc)
            self._draining |= 1 << vc
            _check_drained(self, vc)
        else:
            self._release(vc)


def pop_link(self):
    """Pop one flit onto the link (one per cycle); ``None`` if empty."""
    if not self.fifo:
        return None
    return self.fifo.pop(0)


def credit_return(self, vc):
    """A downstream buffer slot freed; finish atomic drains if complete."""
    self.credits[vc] += 1
    if self.credits[vc] > self.downstream_depth:
        raise FlowControlError(
            f"credit overflow on {self.direction.name} VC {vc}"
        )
    if (self.adaptive >> vc) & 1:
        self._adaptive_credits += 1
    if (self._draining >> vc) & 1:
        return _check_drained(self, vc)
    return False


def _check_drained(self, vc):
    if self.credits[vc] == self.downstream_depth:
        self._release(vc)
        return True
    return False


def new_cycle(self):
    """Reset the per-cycle switch acceptance counter."""
    self._accepted_this_cycle = 0


class ParentRouter(Router):
    """The stage methods as the parent composed them from the helpers."""

    def receive_flit(self, direction, vc, flit):
        ivc = self.input_vcs[direction][vc]
        push(ivc, flit)
        self.inflight += 1
        self.buffered_input_flits += 1
        self._occupied_masks[direction] |= 1 << vc
        if ivc.state is VcState.IDLE:
            refresh_state(ivc)
            if ivc.state is VcState.ROUTING:
                self._pending[(direction, vc)] = ivc
                self._events.changed = True

    def receive_credit(self, direction, vc):
        if credit_return(self.output_ports[direction], vc):
            self.credit_pending = True

    def link_traversal(self, blocked_mask=0):
        if self.inflight == 0:
            return []
        sent = []
        for direction, port in self.output_ports.items():
            if blocked_mask and (blocked_mask >> direction) & 1:
                continue
            popped = pop_link(port)
            if popped is not None:
                flit, vc = popped
                sent.append((direction, vc, flit))
                self.inflight -= 1
                self.staged_flits -= 1
        return sent

    def route_and_allocate(self):
        if self.inflight == 0 or not self._pending:
            self._clear_fresh()
            return
        events = self._events
        if not events.changed:
            if self._sample_blocking:
                self._sample_blocked()
            return
        events.changed = False

        requests = []
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
            ctx.input_direction = ivc.direction
            committed = ivc.committed_dir
            if committed is None:
                committed = ivc.committed_dir = routing.select_output(ctx)
            reqs = vc_requests_at(ctx, committed)
            if blocked:
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
                    probe.vc_alloc(
                        self.node,
                        direction,
                        out_vc,
                        head,
                        port.owner_dst[out_vc] == dst,
                    )
                port.allocate(out_vc, dst)
                grant(ivc, direction, out_vc)
                del pending[(ivc.direction, ivc.index)]

        if self._sample_blocking and self._pending:
            self._sample_blocked()
        self._clear_fresh()

    def switch_traversal(self):
        if self.inflight == 0:
            return []
        credits = []
        n_ports = len(self._port_order)
        self._sa_port_offset = (self._sa_port_offset + 1) % n_ports
        if self.buffered_input_flits == 0:
            return []
        occupied_masks = self._occupied_masks
        probe = self.probe
        tracing = probe is not None and probe.tracing
        sent_to = []
        for i in range(n_ports):
            direction = self._port_order[(self._sa_port_offset + i) % n_ports]
            if not occupied_masks[direction]:
                continue
            ivc = self._pick_sa_winner(direction)
            if ivc is None:
                continue
            out_port = self.output_ports[ivc.out_direction]
            out_vc = ivc.out_vc
            assert out_vc is not None
            flit = pop(ivc)
            self.buffered_input_flits -= 1
            if not ivc.fifo:
                occupied_masks[direction] &= ~(1 << ivc.index)
            send(out_port, flit, out_vc)
            sent_to.append(out_port)
            self.staged_flits += 1
            if tracing:
                probe.switch(
                    self.node, direction, flit, out_port.direction, out_vc
                )
            if ivc.state is VcState.ROUTING:
                self._pending[(direction, ivc.index)] = ivc
                self._events.changed = True
            credits.append((direction, ivc.index))
        for out_port in sent_to:
            new_cycle(out_port)
        return credits

    def _pick_sa_winner(self, direction):
        occupied = self._occupied_masks[direction]
        vcs = self.input_vcs[direction]
        outputs = self.output_ports
        active = VcState.ACTIVE
        sendable = 0
        while occupied:
            low = occupied & -occupied
            ivc = vcs[low.bit_length() - 1]
            if ivc.state is active and can_send(
                outputs[ivc.out_direction], ivc.out_vc
            ):
                sendable |= low
            occupied -= low
        if not sendable:
            return None
        return vcs[self._vc_arbiters[direction].grant_mask(sendable)]


def test_the_oracle_states_every_stage_method():
    for name in ("receive_flit", "receive_credit", "link_traversal",
                 "route_and_allocate", "switch_traversal"):
        assert getattr(ParentRouter, name) is not getattr(Router, name)


# ----------------------------------------------------------------------
# Two routers, one drive
# ----------------------------------------------------------------------
class RecordingProbe:
    """The telemetry hub's two router probes, recorded."""

    tracing = True

    def __init__(self):
        self.calls = []

    def vc_alloc(self, *args):
        self.calls.append(("va", *args))

    def switch(self, *args):
        self.calls.append(("st", *args))


def make_pair(routing, speedup, fifo_depth):
    config = SimulationConfig(
        width=4,
        num_vcs=NUM_VCS,
        vc_buffer_depth=DEPTH,
        routing=routing,
        internal_speedup=speedup,
        output_buffer_depth=fifo_depth,
    )
    pair = []
    for cls in (ParentRouter, Router):
        router = cls(
            NODE,
            Mesh2D(4),
            config,
            create_routing(routing),
            RngStreams(3).stream(f"router/{NODE}"),
        )
        router.enable_blocking_sampling(True)
        router.probe = RecordingProbe()
        pair.append(router)
    return pair


def observable(router):
    events = router._events
    return (
        [
            (ivc.state, ivc.out_direction, ivc.out_vc, ivc.committed_dir,
             list(ivc.fifo))
            for vcs in router.input_vcs.values()
            for ivc in vcs
        ],
        list(router._pending),
        (router.inflight, router.staged_flits, router.buffered_input_flits,
         list(router._occupied_masks), router.credit_pending,
         router._sa_port_offset, router.fault_blocked),
        (events.changed, list(events.fresh_ports)),
        [
            (list(port.credits), list(port.owner_dst), port.allocated,
             port._draining, port.free, port.fresh, sorted(port._fp.items()),
             list(port.fifo), port._accepted_this_cycle,
             port._adaptive_credits)
            for port in router.output_ports.values()
        ],
        [arbiter._pointer for arbiter in router._vc_arbiters.values()],
        (router.blocking.blocking_events, router.blocking.busy_vc_samples,
         router.blocking.footprint_vc_samples),
        router.rng.getstate(),
        list(router.probe.calls),
    )


#: The three stage methods the engine also calls on their own.
STAGE = st.tuples(st.sampled_from(("alloc", "switch", "link")))
#: What a broken upstream forces: a packet one flit longer than the VC
#: has room for, a credit for a VC whose credits are all home, and a
#: body flit where a packet must start (raised on arrival at an idle
#: VC, or when the tail ahead of it leaves).
FORCED = st.tuples(
    st.sampled_from(("overflow", "credit_overflow", "non_head")),
    st.sampled_from(tuple(Direction)),
    st.integers(0, NUM_VCS - 1),
)
OPS = st.lists(
    st.one_of(
        RECEIVE, RECEIVE, RECEIVE, CREDIT, CREDIT, FAULT, ROUND, ROUND,
        STAGE, STAGE, STAGE,
    ),
    min_size=60,
    max_size=160,
)


def packet(dst, size):
    return Packet(src=4, dst=dst, size=size, creation_time=0).flits()


def drive(reference, folded, ops):
    """Apply ``ops`` to both routers, comparing after each; returns the
    ``(exception type, message)`` both raised, or ``None``."""
    #: (direction, vc) of flits sent downstream and not yet credited.
    outstanding = []
    for op in ops:
        kind = op[0]
        if kind == "receive":
            _, direction, vc, dst, size = op
            if len(folded.input_vcs[direction][vc].fifo) + size > DEPTH:
                continue
            flits = packet(dst, size)
            act = lambda r: [r.receive_flit(direction, vc, f) for f in flits]
        elif kind == "credit":
            if not outstanding:
                continue
            direction, vc = outstanding.pop(op[1] % len(outstanding))
            act = lambda r: r.receive_credit(direction, vc)
        elif kind == "fault":
            act = lambda r: r.set_fault_mask(op[1])
        elif kind == "alloc":
            def act(r):
                r.route_and_allocate()
                r.credit_pending = False
        elif kind == "switch":
            act = lambda r: r.switch_traversal()
        elif kind == "link":
            act = lambda r: r.link_traversal(r.fault_blocked)
        elif kind == "round":
            def act(r):
                r.route_and_allocate()
                r.credit_pending = False
                return r.switch_traversal(), r.link_traversal(r.fault_blocked)
        else:
            _, direction, vc = op
            if kind == "overflow":
                room = DEPTH - len(folded.input_vcs[direction][vc].fifo)
                flits = packet(6, room + 1)
                act = lambda r: [
                    r.receive_flit(direction, vc, f) for f in flits
                ]
            elif kind == "credit_overflow":
                port = folded.output_ports[direction]
                if port.credits[vc] < port.downstream_depth:
                    continue
                act = lambda r: r.receive_credit(direction, vc)
            else:
                if len(folded.input_vcs[direction][vc].fifo) >= DEPTH:
                    continue
                body = packet(6, 2)[1]
                act = lambda r: r.receive_flit(direction, vc, body)

        outcomes = []
        for router in (reference, folded):
            try:
                outcomes.append(("returned", act(router)))
            except (FlowControlError, AllocationError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[1] == outcomes[0], op
        assert observable(folded) == observable(reference), op
        if outcomes[0][0] != "returned":
            return outcomes[0]
        if kind in ("link", "round"):
            sent = outcomes[0][1] if kind == "link" else outcomes[0][1][1]
            outstanding.extend((d, vc) for d, vc, _flit in sent)
    return None


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(("footprint", "dbar", "dor", "oddeven", "dbar+xordet")),
    st.sampled_from(((1, 1), (1, 2), (2, 2), (2, 4))),
    OPS,
    # At most one forced error, anywhere in the run.
    st.one_of(st.none(), st.tuples(FORCED, st.integers(0, 160))),
)
def test_stage_methods_equal_the_parent_composition(
    routing, output, ops, forced
):
    if forced is not None:
        op, at = forced
        ops = [*ops[:at], op, *ops[at:]]
    reference, folded = make_pair(routing, *output)
    raised = drive(reference, folded, ops)
    event(f"raised: {raised and raised[1].split(' ')[0]}")
    crossed = sum(call[0] == "st" for call in folded.probe.calls)
    event(f"flits through the switch: {min(crossed // 10 * 10, 50)}+")


@pytest.mark.parametrize(
    "ops, message",
    [
        ([("receive", Direction.WEST, 0, 6, 1),
          ("overflow", Direction.WEST, 0)],
         "input VC WEST.0 overflow: credit protocol violated"),
        ([("credit_overflow", Direction.EAST, 1)],
         "credit overflow on EAST VC 1"),
        ([("non_head", Direction.NORTH, 2)],
         "at front of idle VC NORTH.2"),
        # Behind a tail: raised when the tail leaves through the switch.
        ([("receive", Direction.WEST, 1, 6, 1),
          ("non_head", Direction.WEST, 1), ("round",)],
         "at front of idle VC WEST.1"),
    ],
    ids=["input-overflow", "credit-overflow", "non-head-idle",
         "non-head-behind-tail"],
)
def test_forced_errors_raise_alike(ops, message):
    exc_type, text = drive(*make_pair("footprint", 2, 2), ops)
    assert exc_type is FlowControlError and message in text
