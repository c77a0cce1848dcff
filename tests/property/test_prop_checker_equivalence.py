"""The invariant sweep against its detection catalogue.

``InvariantChecker.run_checks`` visits every endpoint, input VC and
output port once: it recounts from the census of the input VCs out of
their reset state, and passes an output port in *its* reset state by
one comparison.  On mid-run simulator snapshots, hypothesis-drawn
corruptions (single fields, the few-field ones that plant a claim on
reset state, and pairs at two routers) must each trip the checker that
:data:`TRIPS` names for their kind with all four checkers on, and a
route off the allowed set trips routing conformance run alone.  The
sweep raises what the checkers run one by one find first, in catalogue
order; a VC whose registers are illegal is reported as that VC, and a
credit equation as one that adds up.  Every clause of the port reset
comparison reaches the recounts :data:`RESET_TRIPS` names, and clean
snapshots raise nothing.  Both tables were read off the four-walk sweep
that the one-walk sweep replaced.
"""

import functools
import random
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.exceptions import InvariantViolation
from repro.faults.schedule import random_link_faults
from repro.router.flit import Packet
from repro.router.vcstate import VcState, non_reset_vcs
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.ports import Direction
from repro.validate import CHECKER_NAMES, ValidationConfig
from repro.validate.checker import InvariantChecker


# ----------------------------------------------------------------------
# Snapshots: clean mid-run simulators, corrupted and restored in place
# ----------------------------------------------------------------------
def _config(**overrides):
    base = dict(
        width=4,
        num_vcs=4,
        routing="footprint",
        traffic="uniform",
        injection_rate=0.3,
        packet_size=4,
        packet_size_range=(1, 4),
        warmup_cycles=1000,
        measure_cycles=1000,
        drain_cycles=1000,
        seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


SNAPSHOTS = {
    # The benchmark's regime: nearly everything in its reset state.
    "mesh8_0.05": (_config(width=8, num_vcs=10, injection_rate=0.05), 60),
    "mesh_0.3": (_config(), 80),
    "mesh_dbar_0.3": (_config(routing="dbar"), 80),
    "torus_0.2": (_config(topology="torus", injection_rate=0.2), 80),
    "mesh_dor_0.3": (_config(routing="dor", num_vcs=2), 80),
    # Congested: queued multi-flit packets, blocked heads, full buffers.
    "mesh_transpose_0.5": (
        _config(
            traffic="transpose", injection_rate=0.5, packet_size_range=None
        ),
        80,
    ),
    # Stepped until the fault manager holds credits (see snapshot()).
    "faults_held": (
        _config(
            routing="dbar",
            faults=random_link_faults(4, k=6, cycle=20, duration=400, seed=5),
        ),
        40,
    ),
}


#: The checker selections a corrupted snapshot is swept under: everything
#: (where the first checker to object hides the rest), and each alone.
SELECTIONS = {
    "all": ValidationConfig(),
    **{name: ValidationConfig.only(name) for name in CHECKER_NAMES},
}


@functools.lru_cache(maxsize=None)
def snapshot(name):
    """A clean run ``steps`` cycles in, and per checker selection the
    sweep that will judge its corruptions."""
    config, steps = SNAPSHOTS[name]
    sim = Simulator(config, validation=ValidationConfig())
    for _ in range(steps):
        sim.step()
    if sim.faults is not None:
        while not sim.faults.held_credits:
            sim.step()
            assert sim.cycle < 400, "the fault schedule never held a credit"
    sweeps = {}
    for selection, validation in SELECTIONS.items():
        checker = sweeps[selection] = InvariantChecker(validation)
        checker.generated_flits = sim.validator.generated_flits
        checker.discarded_flits = sim.validator.discarded_flits
    return sim, sweeps


def outcome(checker, sim):
    """What one sweep says about ``sim``: ``None`` or where it objected."""
    try:
        checker.run_checks(sim, sim.cycle)
    except InvariantViolation as exc:
        return (exc.checker, exc.node, exc.direction, exc.vc, str(exc))
    except (AttributeError, KeyError, TypeError) as exc:
        # A checker running alone can trip over state that a checker it
        # normally follows would have rejected (an ACTIVE VC without an
        # ``out_direction`` under routing_conformance only).
        return type(exc).__name__
    return None


# ----------------------------------------------------------------------
# Corruptions.  Each takes (sim, rnd), damages the simulator in place and
# returns the function that undoes it — or None when the snapshot holds
# nothing of the kind to damage.
# ----------------------------------------------------------------------
def set_attr(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    return lambda: setattr(obj, name, old)


def set_item(seq, key, value):
    old = seq[key]
    seq[key] = value
    return lambda: seq.__setitem__(key, old)


def other(rnd, current, choices):
    """A member of ``choices`` that differs from ``current``."""
    return rnd.choice([c for c in choices if c != current])


def any_flit(sim, rnd):
    node = rnd.randrange(sim.mesh.num_nodes)
    packet = Packet(
        src=node, dst=rnd.randrange(sim.mesh.num_nodes), size=2,
        creation_time=0,
    )
    return rnd.choice(packet.flits())


def pick_vc(sim, rnd):
    """(router, input VC): a working VC or one in the reset state, 1:1."""
    working = rnd.random() < 0.5
    routers = [
        r for r in sim.routers if non_reset_vcs(r.input_vcs) or not working
    ]
    router = rnd.choice(routers)
    live = non_reset_vcs(router.input_vcs)
    if working:
        return router, rnd.choice(live)
    return router, rnd.choice(
        [
            ivc
            for port in router.input_vcs.values()
            for ivc in port
            if ivc not in live
        ]
    )


def is_reset_port(port):
    return (
        port.credits == [port.downstream_depth] * port.num_vcs
        and not port.allocated
        and not port._draining
        and not port.fifo
    )


def pick_port(sim, rnd):
    """(router, direction, output port): busy or in the reset state, 1:1."""
    reset = rnd.random() < 0.5
    return rnd.choice(
        [
            (router, direction, port)
            for router in sim.routers
            for direction, port in router.output_ports.items()
            if is_reset_port(port) is reset
        ]
    )


def per_field(corruption, *fields):
    """``corruption`` once per field, so each gets its share of examples."""
    variants = []
    for field in fields:
        variant = functools.partial(corruption, field=field)
        variant.__name__ = f"{corruption.__name__}[{field}]"
        variants.append(variant)
    return variants


def nudge(obj, field, rnd):
    return set_attr(obj, field, getattr(obj, field) + rnd.choice((-1, 1)))


def engine_counter(sim, rnd, field):
    return nudge(sim, field, rnd)


def source_counter(sim, rnd, field):
    return nudge(rnd.choice(sim.sources), field, rnd)


def sink_counter(sim, rnd, field):
    return nudge(rnd.choice(sim.sinks), field, rnd)


def sink_occupied_bit(sim, rnd):
    sink = rnd.choice(sim.sinks)
    return set_attr(
        sink, "_occupied", sink._occupied ^ 1 << rnd.randrange(sink.num_vcs)
    )


def source_queue_push(sim, rnd):
    """A packet queued behind the source's back: its pending count and
    the engine's backlog no longer cover it."""
    source = rnd.choice(sim.sources)
    packet = any_flit(sim, rnd).packet
    source.queue.append(packet)
    return source.queue.pop


def sink_buffer_push(sim, rnd):
    sink = rnd.choice(sim.sinks)
    buffer = sink.buffers[rnd.randrange(sink.num_vcs)]
    buffer.append(any_flit(sim, rnd))
    return buffer.pop


def wire_flit_added(sim, rnd):
    router = rnd.choice(sim.routers)
    in_dir = rnd.choice(
        [d for d in router.input_vcs if d is not Direction.LOCAL]
    )
    vc = rnd.randrange(sim.config.num_vcs)
    sim._flits_next.append((router.node, in_dir, vc, any_flit(sim, rnd)))
    return sim._flits_next.pop


def wire_dropped(sim, rnd):
    wires = [
        w for w in (sim._flits_next, sim._credits_next, sim._sink_next) if w
    ]
    if not wires:
        return None
    wire = rnd.choice(wires)
    at = rnd.randrange(len(wire))
    entry = wire.pop(at)
    return lambda: wire.insert(at, entry)


def wire_credit_added(sim, rnd):
    router, direction, port = pick_port(sim, rnd)
    sim._credits_next.append(
        (router.node, direction, rnd.randrange(port.num_vcs))
    )
    return sim._credits_next.pop


def sink_wire_added(sim, rnd):
    node = rnd.randrange(sim.mesh.num_nodes)
    vc = rnd.randrange(sim.config.num_vcs)
    sim._sink_next.append((node, vc, any_flit(sim, rnd)))
    return sim._sink_next.pop


def held_credit_added(sim, rnd):
    if sim.faults is None:
        return None
    router, direction, port = pick_port(sim, rnd)
    held = sim.faults._held
    held.append((router.node, direction, rnd.randrange(port.num_vcs)))
    return held.pop


def held_credit_dropped(sim, rnd):
    if sim.faults is None:
        return None
    held = sim.faults._held
    at = rnd.randrange(len(held))
    entry = held.pop(at)
    return lambda: held.insert(at, entry)


def vc_state(sim, rnd):
    _router, ivc = pick_vc(sim, rnd)
    return set_attr(ivc, "state", other(rnd, ivc.state, list(VcState)))


def vc_register(sim, rnd, field):
    """A leftover (or lost) out_direction / out_vc / committed_dir."""
    router, ivc = pick_vc(sim, rnd)
    if field == "out_vc":
        choices = [None, *range(sim.config.num_vcs)]
    else:
        choices = [None, *router.output_ports]
    return set_attr(ivc, field, other(rnd, getattr(ivc, field), choices))


def active_claim_on_reset_vc(sim, rnd):
    """A reset input VC turned ACTIVE on some (usually unallocated)
    downstream VC: legal by itself, but nobody allocated it."""
    router = rnd.choice(sim.routers)
    live = non_reset_vcs(router.input_vcs)
    reset = [
        ivc
        for port in router.input_vcs.values()
        for ivc in port
        if ivc not in live
    ]
    if not reset:
        return None
    ivc = rnd.choice(reset)
    # Draw before damaging: a draw may end the example.
    out_direction = rnd.choice(list(router.output_ports))
    out_vc = rnd.randrange(sim.config.num_vcs)
    undo = [
        set_attr(ivc, "state", VcState.ACTIVE),
        set_attr(ivc, "out_direction", out_direction),
        set_attr(ivc, "out_vc", out_vc),
    ]
    return lambda: [u() for u in undo]


def vc_fifo_push(sim, rnd):
    _router, ivc = pick_vc(sim, rnd)
    ivc.fifo.append(any_flit(sim, rnd))
    return ivc.fifo.pop


def vc_fifo_pop(sim, rnd):
    occupied = [
        ivc
        for router in sim.routers
        for ivc in non_reset_vcs(router.input_vcs)
        if ivc.fifo
    ]
    fifo = rnd.choice(occupied).fifo
    if rnd.random() < 0.5:
        flit = fifo.pop(0)
        return lambda: fifo.insert(0, flit)
    flit = fifo.pop()
    return lambda: fifo.append(flit)


def vc_fifo_swap(sim, rnd):
    long = [
        ivc
        for router in sim.routers
        for ivc in non_reset_vcs(router.input_vcs)
        if len(ivc.fifo) > 1
    ]
    if not long:
        return None
    fifo = rnd.choice(long).fifo
    fifo[0], fifo[1] = fifo[1], fifo[0]

    def undo():
        fifo[0], fifo[1] = fifo[1], fifo[0]

    return undo


def route_off_the_allowed_set(sim, rnd):
    """An ACTIVE VC's output register re-pointed at a port its routing
    algorithm does not allow for the head's packet (nor LOCAL)."""
    routes = []
    for router in sim.routers:
        for ivc in non_reset_vcs(router.input_vcs):
            if ivc.state is not VcState.ACTIVE or not ivc.fifo:
                continue
            head = ivc.fifo[0]
            allowed = {
                Direction.LOCAL,
                *sim.routing.allowed_directions(
                    sim.mesh, router.node, head.dst, head.src
                ),
            }
            illegal = [d for d in router.output_ports if d not in allowed]
            if illegal:
                routes.append((ivc, illegal))
    if not routes:
        return None
    ivc, illegal = rnd.choice(routes)
    return set_attr(ivc, "out_direction", rnd.choice(illegal))


def router_counter(sim, rnd, field):
    return nudge(rnd.choice(sim.routers), field, rnd)


def occupancy_mask_bit(sim, rnd):
    """Includes a set bit on a port none of whose VCs holds a flit."""
    router, ivc = pick_vc(sim, rnd)
    masks = router._occupied_masks
    flipped = masks[ivc.direction] ^ (1 << ivc.index)
    return set_item(masks, ivc.direction, flipped)


def pending_key(sim, rnd):
    router, ivc = pick_vc(sim, rnd)
    key = (ivc.direction, ivc.index)
    pending = router._pending
    if key in pending:
        # Re-inserting would move the key to the end of the dict, which
        # no sweep looks at but the allocation order does.
        saved = dict(pending)
        del pending[key]

        def undo():
            pending.clear()
            pending.update(saved)

        return undo
    pending[key] = ivc
    return lambda: pending.pop(key)


def credit_delta(sim, rnd):
    _router, _direction, port = pick_port(sim, rnd)
    vc = rnd.randrange(port.num_vcs)
    return set_item(port.credits, vc, port.credits[vc] + rnd.choice((-1, 1)))


def credit_moved(sim, rnd):
    """Sum-preserving: one credit moves between two VCs of one port."""
    _router, _direction, port = pick_port(sim, rnd)
    a, b = rnd.sample(range(port.num_vcs), 2)
    undo = [
        set_item(port.credits, a, port.credits[a] - 1),
        set_item(port.credits, b, port.credits[b] + 1),
    ]
    return lambda: [u() for u in undo]


def port_vc_flag(sim, rnd, field):
    """One bit of one VC mask flipped — on ``free``, a VC withheld
    without being allocated or offered while busy."""
    _router, _direction, port = pick_port(sim, rnd)
    vc = rnd.randrange(port.num_vcs)
    return set_attr(port, field, getattr(port, field) ^ (1 << vc))


def port_owner(sim, rnd):
    _router, _direction, port = pick_port(sim, rnd)
    vc = rnd.randrange(port.num_vcs)
    owners = [None, *range(sim.mesh.num_nodes)]
    return set_item(port.owner_dst, vc, other(rnd, port.owner_dst[vc], owners))


def port_counter(sim, rnd, field):
    return nudge(pick_port(sim, rnd)[2], field, rnd)


def port_fp_index_stale(sim, rnd):
    _router, _direction, port = pick_port(sim, rnd)
    dst = rnd.randrange(sim.mesh.num_nodes)
    if dst in port._fp:
        return None
    port._fp[dst] = rnd.choice((0, 1 << rnd.randrange(port.num_vcs)))
    return lambda: port._fp.pop(dst)


def port_fp_index_moved(sim, rnd):
    """A busy VC filed under another destination's footprint."""
    indexed = [
        port
        for router in sim.routers
        for port in router.output_ports.values()
        if port._fp
    ]
    if not indexed:
        return None
    port = rnd.choice(indexed)
    dst = rnd.choice(sorted(port._fp))
    saved = dict(port._fp)
    moved = port._fp.pop(dst)
    wrong = other(rnd, dst, range(sim.mesh.num_nodes))
    port._fp[wrong] = port._fp.get(wrong, 0) | moved

    def undo():
        port._fp.clear()
        port._fp.update(saved)

    return undo


def port_fifo_push(sim, rnd):
    _router, _direction, port = pick_port(sim, rnd)
    port.fifo.append((any_flit(sim, rnd), rnd.randrange(port.num_vcs)))
    return port.fifo.pop


def port_fifo_pop(sim, rnd):
    staged = [
        port
        for router in sim.routers
        for port in router.output_ports.values()
        if port.fifo
    ]
    if not staged:
        return None
    fifo = rnd.choice(staged).fifo
    entry = fifo.pop(0)
    return lambda: fifo.insert(0, entry)


CORRUPTIONS = (
    *per_field(engine_counter, "_flits_in_network", "_source_backlog"),
    *per_field(source_counter, "offered_flits", "pending_flits"),
    *per_field(sink_counter, "ejected_flits", "occupancy"),
    sink_occupied_bit,
    source_queue_push,
    sink_buffer_push,
    wire_flit_added,
    wire_dropped,
    wire_credit_added,
    sink_wire_added,
    held_credit_added,
    held_credit_dropped,
    vc_state,
    *per_field(vc_register, "out_direction", "out_vc", "committed_dir"),
    active_claim_on_reset_vc,
    vc_fifo_push,
    vc_fifo_pop,
    vc_fifo_swap,
    route_off_the_allowed_set,
    *per_field(
        router_counter, "buffered_input_flits", "staged_flits", "inflight"
    ),
    occupancy_mask_bit,
    pending_key,
    credit_delta,
    credit_moved,
    *per_field(port_vc_flag, "allocated", "_draining", "free", "fresh"),
    port_owner,
    *per_field(port_counter, "_adaptive_credits", "_accepted_this_cycle"),
    port_fp_index_stale,
    port_fp_index_moved,
    port_fifo_push,
    port_fifo_pop,
)


#: The checker each corruption kind trips with all four on, read off the
#: four-walk sweep that the one-walk sweep replaced (every snapshot, 150
#: seeded draws each).  ``None``: some draws leave the state legal (a
#: fresh bit cleared, a free VC's owner rewritten, a commitment moved to
#: another allowed port).  ``wire_dropped``'s checker is the wire's.
TRIPS = {
    **dict.fromkeys(
        (
            "engine_counter[_flits_in_network]",
            "engine_counter[_source_backlog]",
            "source_counter[offered_flits]",
            "source_counter[pending_flits]",
            "sink_counter[ejected_flits]",
            "sink_counter[occupancy]",
            "source_queue_push",
            "wire_flit_added",
            "sink_wire_added",
            "vc_fifo_push",
            "vc_fifo_pop",
            "port_fifo_push",
            "port_fifo_pop",
        ),
        {"flit_conservation"},
    ),
    **dict.fromkeys(
        (
            "sink_buffer_push",
            "wire_credit_added",
            "held_credit_added",
            "held_credit_dropped",
            "credit_delta",
            "credit_moved",
        ),
        {"credit_accounting"},
    ),
    **dict.fromkeys(
        (
            "sink_occupied_bit",
            "vc_state",
            "vc_register[out_direction]",
            "vc_register[out_vc]",
            "active_claim_on_reset_vc",
            "vc_fifo_swap",
            # Added after the four-walk sweep: what the one-walk sweep says.
            "route_off_the_allowed_set",
            "router_counter[buffered_input_flits]",
            "router_counter[staged_flits]",
            "router_counter[inflight]",
            "occupancy_mask_bit",
            "pending_key",
            "port_vc_flag[allocated]",
            "port_vc_flag[_draining]",
            "port_vc_flag[free]",
            "port_counter[_adaptive_credits]",
            "port_counter[_accepted_this_cycle]",
            "port_fp_index_stale",
            "port_fp_index_moved",
        ),
        {"vc_states"},
    ),
    "wire_dropped": {"flit_conservation", "credit_accounting"},
    "vc_register[committed_dir]": {"vc_states", "routing_conformance", None},
    "port_vc_flag[fresh]": {"vc_states", None},
    "port_owner": {"vc_states", None},
}


def test_the_table_names_every_corruption():
    assert set(TRIPS) == {corrupt.__name__ for corrupt in CORRUPTIONS}


@settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    st.sampled_from(sorted(SNAPSHOTS)),
    st.sampled_from(CORRUPTIONS),
    st.randoms(use_true_random=False),
)
def test_each_corruption_trips_its_checker(name, corrupt, rnd):
    sim, sweeps = snapshot(name)
    undo = corrupt(sim, rnd)
    assume(undo is not None)
    try:
        seen = in_catalogue_order(sim, sweeps, corrupt.__name__)
        illegal = [
            (router.node, ivc)
            for router in sim.routers
            for ivc in non_reset_vcs(router.input_vcs)
            if ivc.legality_violation() is not None
        ]
        if len(illegal) == 1:
            # The first thing vc_states meets at that VC: its registers.
            node, ivc = illegal[0]
            where = ("vc_states", node, ivc.direction, ivc.index)
            assert seen["vc_states"][:4] == where, seen
            assert ivc.legality_violation() in seen["vc_states"][4]
    finally:
        undo()
    assert tripped(seen["all"]) in TRIPS[corrupt.__name__], seen
    assert outcome(sim.validator, sim) is None, "undo left damage behind"


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SNAPSHOTS)), st.randoms(use_true_random=False))
def test_a_flipped_occupancy_bit_is_reported_at_its_vc(name, rnd):
    """vc_states names the router, port and VC whose occupancy bit
    disagrees with the FIFO, set or cleared."""
    sim, sweeps = snapshot(name)
    router, ivc = pick_vc(sim, rnd)
    masks = router._occupied_masks
    flipped = masks[ivc.direction] ^ (1 << ivc.index)
    undo = set_item(masks, ivc.direction, flipped)
    try:
        found = outcome(sweeps["vc_states"], sim)
    finally:
        undo()
    assert found[:4] == ("vc_states", router.node, ivc.direction, ivc.index)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(st.sampled_from(sorted(SNAPSHOTS)), st.randoms(use_true_random=False))
def test_a_route_off_the_allowed_set_trips_routing_conformance(name, rnd):
    """With all four checkers on vc_states objects first (the VC holds a
    port it was not granted), so routing conformance is checked alone:
    the committed route leaves the algorithm's allowed set."""
    sim, sweeps = snapshot(name)
    undo = route_off_the_allowed_set(sim, rnd)
    assume(undo is not None)
    try:
        found = outcome(sweeps["routing_conformance"], sim)
    finally:
        undo()
    assert tripped(found) == "routing_conformance", found


def tripped(found):
    """The checker named by an outcome (``None``: nothing raised)."""
    return found[0] if isinstance(found, tuple) else found


#: The per-VC credit equation a credit_accounting violation reports.
CREDIT_SUM = re.compile(
    r"(-?\d+) credits \+ (-?\d+) staged \+ (-?\d+) downstream \+ "
    r"(-?\d+) returning \+ (-?\d+) fault-held = (-?\d+), expected the "
    r"buffer depth (\d+)"
)


def in_catalogue_order(sim, sweeps, label):
    """Every selection's outcome, ``{selection: outcome}``.  A checker
    run alone reports under its own name; with all four on, the sweep
    raises what the first of them to object (in catalogue order) finds;
    a reported credit equation adds up, to something but the depth."""
    seen = {selection: outcome(sweeps[selection], sim) for selection in sweeps}
    alone = [seen[name] for name in CHECKER_NAMES if seen[name] is not None]
    assert seen["all"] == (alone[0] if alone else None), (label, seen)
    for name in CHECKER_NAMES:
        assert tripped(seen[name]) in (name, None) or isinstance(
            seen[name], str
        ), (label, seen)
    for found in seen.values():
        equation = isinstance(found, tuple) and CREDIT_SUM.search(found[4])
        if equation:
            *terms, total, depth = map(int, equation.groups())
            assert sum(terms) == total != depth, (label, found)
    return seen


def test_snapshots_are_clean_and_cover_the_fast_paths():
    for name in SNAPSHOTS:
        sim, sweeps = snapshot(name)
        for checker in sweeps.values():
            assert outcome(checker, sim) is None
        vcs = [
            ivc
            for router in sim.routers
            for port in router.input_vcs.values()
            for ivc in port
        ]
        live = [
            ivc
            for router in sim.routers
            for ivc in non_reset_vcs(router.input_vcs)
        ]
        ports = [
            port
            for router in sim.routers
            for port in router.output_ports.values()
        ]
        # Both sides of every fast path are present in every snapshot
        # (pick_vc / pick_port draw from each side).
        assert 0 < len(live) < len(vcs), name
        assert 0 < sum(map(is_reset_port, ports)) < len(ports), name
    assert snapshot("faults_held")[0].faults.held_credits


# ----------------------------------------------------------------------
# Two corruptions at two routers: each checker reports the first it meets
# in its own scan order, and the sweep raises in catalogue order.
# ----------------------------------------------------------------------
def reset_ivc(router, rnd):
    live = non_reset_vcs(router.input_vcs)
    reset = [
        ivc for port in router.input_vcs.values() for ivc in port
        if ivc not in live
    ]
    return rnd.choice(reset) if reset else None


def router_credit(sim, router, rnd):
    port = rnd.choice(list(router.output_ports.values()))
    vc = rnd.randrange(port.num_vcs)
    return set_item(port.credits, vc, port.credits[vc] + rnd.choice((-1, 1)))


def router_returning_credit(sim, router, rnd):
    direction = rnd.choice(list(router.output_ports))
    sim._credits_next.append(
        (router.node, direction, rnd.randrange(sim.config.num_vcs))
    )
    return sim._credits_next.pop


def router_pending_key(sim, router, rnd):
    ivc = reset_ivc(router, rnd)
    if ivc is None:
        return None
    key = (ivc.direction, ivc.index)
    router._pending[key] = ivc
    return lambda: router._pending.pop(key)


def router_free_bit(sim, router, rnd):
    port = rnd.choice(list(router.output_ports.values()))
    return set_attr(port, "free", port.free ^ 1 << rnd.randrange(port.num_vcs))


def router_holder(sim, router, rnd):
    ivc = reset_ivc(router, rnd)
    if ivc is None:
        return None
    # Draw before damaging: a draw may end the example.
    out_direction = rnd.choice(list(router.output_ports))
    out_vc = rnd.randrange(sim.config.num_vcs)
    undo = [
        set_attr(ivc, "state", VcState.ACTIVE),
        set_attr(ivc, "out_direction", out_direction),
        set_attr(ivc, "out_vc", out_vc),
    ]
    return lambda: [u() for u in undo]


def router_staged_count(sim, router, rnd):
    return nudge(router, rnd.choice(("staged_flits", "inflight")), rnd)


def router_owner(sim, router, rnd):
    busy = [
        (port, vc)
        for port in router.output_ports.values()
        for vc in range(port.num_vcs)
        if (port.allocated >> vc) & 1
    ]
    if not busy:
        return None
    port, vc = rnd.choice(busy)
    owners = range(sim.mesh.num_nodes)
    return set_item(port.owner_dst, vc, other(rnd, port.owner_dst[vc], owners))


def router_fifo_push(sim, router, rnd):
    ivc = rnd.choice(
        [ivc for port in router.input_vcs.values() for ivc in port]
    )
    ivc.fifo.append(any_flit(sim, rnd))
    return ivc.fifo.pop


AT_ROUTER = (
    router_credit,
    router_returning_credit,
    router_pending_key,
    router_free_bit,
    router_holder,
    router_staged_count,
    router_owner,
    router_fifo_push,
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    st.sampled_from(sorted(SNAPSHOTS)),
    st.sampled_from(AT_ROUTER),
    st.sampled_from(AT_ROUTER),
    st.randoms(use_true_random=False),
)
def test_two_corruptions_at_two_routers_raise_in_catalogue_order(
    name, a, b, rnd
):
    sim, sweeps = snapshot(name)
    undo = []
    try:
        for corrupt, router in zip((a, b), rnd.sample(sim.routers, 2)):
            undo.append(corrupt(sim, router, rnd))
            assume(undo[-1] is not None)
        seen = in_catalogue_order(sim, sweeps, (a.__name__, b.__name__))
        assert seen["all"] is not None
    finally:
        for u in reversed(undo):
            if u is not None:
                u()
    assert outcome(sim.validator, sim) is None, "undo left damage behind"


def test_first_per_checker_then_catalogue_order():
    """vc_states reports its lower router even when that router's fault
    is a port's (pass 2) and the higher router's a VC's (pass 1), and
    credit_accounting still comes first."""
    sim, sweeps = snapshot("mesh8_0.05")
    rnd = random.Random(5)
    low, high = sim.routers[3], sim.routers[40]
    port = next(iter(low.output_ports.values()))
    undo = [
        set_attr(port, "free", port.free ^ 1),
        router_pending_key(sim, high, rnd),
        router_returning_credit(sim, high, rnd),
    ]
    try:
        seen = in_catalogue_order(sim, sweeps, "ordering")
    finally:
        for u in reversed(undo):
            u()
    assert seen["vc_states"][:3] == ("vc_states", low.node, port.direction)
    assert seen["credit_accounting"][:2] == ("credit_accounting", high.node)
    assert seen["all"] == seen["credit_accounting"]


# ----------------------------------------------------------------------
# Every clause of the port reset comparison is load-bearing: on a reset
# port of an idle router, damaging that one field must reach a recount.
# ----------------------------------------------------------------------
def idle_reset_port():
    sim, sweeps = snapshot("mesh8_0.05")
    for router in sim.routers:
        if router.inflight or router.credit_pending:
            continue
        for direction, port in router.output_ports.items():
            if is_reset_port(port) and not port.fresh and not port._fp:
                return sim, sweeps, router, direction, port
    raise AssertionError("no idle router with a reset port")


def claim_on_port(sim, router, direction, port):
    sim._credits_next.append((router.node, direction, 1))
    return sim._credits_next.pop


def holder_of_port(sim, router, direction, port):
    ivc = next(
        ivc for vcs in router.input_vcs.values() for ivc in vcs
        if ivc not in non_reset_vcs(router.input_vcs)
    )
    undo = [
        set_attr(ivc, "state", VcState.ACTIVE),
        set_attr(ivc, "out_direction", direction),
        set_attr(ivc, "out_vc", 1),
    ]
    return lambda: [u() for u in undo]


def staged_flit(sim, router, direction, port):
    port.fifo.append((any_flit(sim, random.Random(1)), 1))
    return port.fifo.pop


RESET_CLAUSES = {
    "fifo": staged_flit,
    "claim": claim_on_port,
    "holder": holder_of_port,
    "credits": lambda sim, r, d, p: set_item(p.credits, 1, p.credits[1] - 1),
    "free": lambda sim, r, d, p: set_attr(p, "free", p.free ^ 0b10),
    "allocated": lambda sim, r, d, p: set_attr(p, "allocated", 0b10),
    "draining": lambda sim, r, d, p: set_attr(p, "_draining", 0b10),
    "fresh": lambda sim, r, d, p: set_attr(p, "fresh", 0b10),
    "accept_counter": lambda sim, r, d, p: set_attr(
        p, "_accepted_this_cycle", 1
    ),
    "footprint_index": lambda sim, r, d, p: (
        p._fp.__setitem__(7, 0b10) or (lambda: p._fp.pop(7))
    ),
    "adaptive_credits": lambda sim, r, d, p: set_attr(
        p, "_adaptive_credits", p._adaptive_credits - 1
    ),
}


#: The checkers each damaged reset clause trips, each run alone, read off
#: the four-walk sweep as :data:`TRIPS` was.
RESET_TRIPS = {
    "fifo": {"flit_conservation", "credit_accounting", "vc_states"},
    "claim": {"credit_accounting"},
    "credits": {"credit_accounting", "vc_states"},
    **dict.fromkeys(
        (
            "holder", "free", "allocated", "draining", "fresh",
            "accept_counter", "footprint_index", "adaptive_credits",
        ),
        {"vc_states"},
    ),
}


@pytest.mark.parametrize("clause", sorted(RESET_CLAUSES))
def test_each_port_reset_clause_reaches_a_recount(clause):
    sim, sweeps, router, direction, port = idle_reset_port()
    undo = RESET_CLAUSES[clause](sim, router, direction, port)
    try:
        seen = in_catalogue_order(sim, sweeps, clause)
    finally:
        undo()
    objecting = {name for name in CHECKER_NAMES if seen[name] is not None}
    assert objecting == RESET_TRIPS[clause], (clause, seen)
    assert outcome(sim.validator, sim) is None, "undo left damage behind"
