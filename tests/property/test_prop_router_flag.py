"""The per-router "nothing changed" flag must be invisible.

``Router.route_and_allocate`` skips evaluating its waiting heads when no
event since the last evaluated round could have changed what they ask
for (``RouterVcEvents.changed``).  Two routers are driven through the
same random sequence of arrivals, credits, fault-mask changes and
pipeline rounds: the reference has its flag forced on before every round
(so it evaluates every one), the other honours it.  After every step
they must agree on every grant, the pending index and its order, the
blocking samples, the output-port masks and the tie-break stream.
"""

from hypothesis import event, given, settings, strategies as st

from repro.router.flit import Packet
from repro.router.router import Router
from repro.routing.registry import create_routing
from repro.sim.config import SimulationConfig
from repro.sim.rng import RngStreams
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction

NODE = 5  # interior node of a 4x4 mesh: all five ports
NUM_VCS = 3
DEPTH = 2
INPUTS = (Direction.WEST, Direction.NORTH, Direction.LOCAL)


def make_router(routing):
    config = SimulationConfig(
        width=4, num_vcs=NUM_VCS, vc_buffer_depth=DEPTH, routing=routing
    )
    router = Router(
        NODE,
        Mesh2D(4),
        config,
        create_routing(routing),
        RngStreams(3).stream(f"router/{NODE}"),
    )
    router.enable_blocking_sampling(True)
    return router


def observable(router):
    return (
        [
            (ivc.state, ivc.out_direction, ivc.out_vc, ivc.committed_dir,
             len(ivc.fifo))
            for vcs in router.input_vcs.values()
            for ivc in vcs
        ],
        list(router._pending),
        (
            router.blocking.blocking_events,
            router.blocking.busy_vc_samples,
            router.blocking.footprint_vc_samples,
        ),
        [
            (port.free, port.fresh, port.allocated, port._draining,
             list(port.owner_dst), sorted(port._fp.items()))
            for port in router.output_ports.values()
        ],
        router.fault_blocked,
        router.rng.getstate(),
    )


ROUND = st.tuples(st.just("round"))
#: Bits 0-3 are the compass ports (EAST is bit 0); LOCAL never dies.
FAULT = st.tuples(st.just("fault"), st.sampled_from((0, 0b0001, 0b0101)))
#: A whole packet written into one input VC.
RECEIVE = st.tuples(
    st.just("receive"),
    st.sampled_from(INPUTS),
    st.integers(0, NUM_VCS - 1),
    # Few destinations, so heads pile up behind the same VCs.
    st.sampled_from((6, 7, 13, 5)),
    st.integers(1, DEPTH),
)
#: One of the credits outstanding downstream comes back.
CREDIT = st.tuples(st.just("credit"), st.integers(0, 63))
OPS = st.lists(
    st.one_of(
        RECEIVE,
        CREDIT,
        FAULT,
        # Mostly rounds: withheld credits and dead ports wedge the heads.
        ROUND, ROUND, ROUND, ROUND,
    ),
    min_size=40,
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("footprint", "dbar", "dor", "dbar+xordet")), FAULT, OPS
)
def test_flagged_rounds_equal_evaluating_every_round(routing, fault, ops):
    reference, flagged = make_router(routing), make_router(routing)
    skipped = 0
    #: (direction, vc) of flits sent downstream and not yet credited.
    outstanding = []
    for op in (fault, *ops):
        kind = op[0]
        if kind == "receive":
            _, direction, vc, dst, size = op
            ivc = flagged.input_vcs[direction][vc]
            if len(ivc.fifo) + size > DEPTH:
                continue
            for router in (reference, flagged):
                packet = Packet(src=4, dst=dst, size=size, creation_time=0)
                for flit in packet.flits():
                    router.receive_flit(direction, vc, flit)
        elif kind == "credit":
            if not outstanding:
                continue
            direction, vc = outstanding.pop(op[1] % len(outstanding))
            for router in (reference, flagged):
                router.receive_credit(direction, vc)
        elif kind == "fault":
            for router in (reference, flagged):
                router.set_fault_mask(op[1])
        else:
            skipped += not flagged._events.changed and bool(
                flagged.inflight and flagged._pending
            )
            reference._events.changed = True
            sent = []
            for router in (reference, flagged):
                router.route_and_allocate()
                router.credit_pending = False
                router.switch_traversal()
                sent.append(router.link_traversal(router.fault_blocked))
            assert [(d, vc, f.dst, f.index) for d, vc, f in sent[0]] == [
                (d, vc, f.dst, f.index) for d, vc, f in sent[1]
            ]
            outstanding.extend((d, vc) for d, vc, _flit in sent[1])
        assert observable(flagged) == observable(reference), op
    event(f"rounds skipped: {min(skipped, 3)}{'+' if skipped > 3 else ''}")


def test_the_drive_above_does_skip_rounds():
    """A dead east port and a head bound for it: every round after the
    first is skipped by the flagged router and evaluated by the
    reference, with identical observable state."""
    reference, flagged = make_router("footprint"), make_router("footprint")
    for router in (reference, flagged):
        router.set_fault_mask(1 << Direction.EAST)
        router.receive_flit(
            Direction.WEST, 0,
            Packet(src=4, dst=6, size=1, creation_time=0).flits()[0],
        )
    for round_ in range(5):
        assert flagged._events.changed is (round_ == 0)
        reference._events.changed = True
        for router in (reference, flagged):
            router.route_and_allocate()
        assert observable(flagged) == observable(reference)
