"""The one-walk invariant sweep must equal the four walks it replaced.

``InvariantChecker.run_checks`` visits every endpoint, input VC and
output port once: it recounts from the census of the input VCs out of
their reset state, and passes an output port in *its* reset state by
one comparison.  The four checkers it replaced — each walking every VC
and every port, one after another — are kept here as
:class:`ReferenceChecker`.  On mid-run simulator snapshots,
hypothesis-drawn corruptions (single fields, the few-field ones that
plant a claim on reset state, and pairs at two routers) must make the
two sweeps raise or pass together, under every checker selection, with
the same ``checker``, ``node``, ``direction``, ``vc`` and message — in
particular the near-reset corruptions each fast path could hide, and
every clause of the port reset comparison.
"""

import functools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.exceptions import InvariantViolation
from repro.faults.schedule import random_link_faults
from repro.router.flit import Packet
from repro.router.vcstate import VcState, non_reset_vcs
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.ports import OPPOSITE, Direction
from repro.validate import CHECKER_NAMES, ValidationConfig
from repro.validate.checker import InvariantChecker


def parent_consistency_violation(self) -> str | None:
    """First broken internal invariant, or ``None``.

    The parent's recount, VC by VC with no early-out; only the way it
    reads the port changed when the port's VC sets became masks (bit
    ``v`` of ``allocated`` / ``_draining`` / ``free`` / ``fresh`` where
    it read element ``v`` of a list or set, ``_fp`` masks where it read
    ``_fp_index`` lists), and the clauses over state that no longer
    exists (busy count, idle cache) became the ones over what replaced
    it (``free``, ``fresh``).
    """
    depth = self.downstream_depth
    allocated = [bool((self.allocated >> v) & 1) for v in range(self.num_vcs)]
    draining = [bool((self._draining >> v) & 1) for v in range(self.num_vcs)]
    adaptive = [
        v
        for v in range(self.num_vcs)
        if v != self.escape_vc and v != self.escape_vc2
    ]
    for vc in range(self.num_vcs):
        credit = self.credits[vc]
        if not 0 <= credit <= depth:
            return f"VC {vc} credit count {credit} outside [0, {depth}]"
        if allocated[vc] and draining[vc]:
            return f"VC {vc} both allocated and draining"
        if draining[vc] and not self.atomic_realloc:
            return f"VC {vc} draining without atomic reallocation"
        if allocated[vc] and self.owner_dst[vc] is None:
            return f"allocated VC {vc} has no owner destination"
    if len(self.fifo) > self.fifo_depth:
        return "staging FIFO above its depth"
    if self._accepted_this_cycle:
        return (
            f"switch accept counter {self._accepted_this_cycle} not "
            f"reset between cycles"
        )
    free = sum(
        1 << v
        for v in range(self.num_vcs)
        if not allocated[v] and not draining[v]
    )
    if self.free != free:
        return (
            f"free-VC mask {self.free:#b} != {free:#b}, the VCs "
            f"neither allocated nor draining"
        )
    stray = [
        v
        for v in range(self.fresh.bit_length())
        if (self.fresh >> v) & 1 and not (free >> v) & 1
    ]
    if stray:
        return f"freshly-released VCs {stray} are not free"
    adaptive_credits = sum(self.credits[v] for v in adaptive)
    if self._adaptive_credits != adaptive_credits:
        return (
            f"adaptive credit total {self._adaptive_credits} != "
            f"recounted {adaptive_credits}"
        )
    footprints = {}
    for v in adaptive:
        if allocated[v] or draining[v]:
            dst = self.owner_dst[v]
            footprints[dst] = footprints.get(dst, 0) | 1 << v
    if self._fp != footprints:
        return (
            f"footprint index {self._fp} != {footprints} recomputed "
            f"from the owners of the busy adaptive VCs"
        )
    return None


class ReferenceChecker(InvariantChecker):
    """The four-walk sweep, verbatim but for one call and two clauses:
    the port recount is the one before any fast path
    (``parent_consistency_violation`` above), and the endpoint caches
    the one-walk sweep also recounts (a source's pending flits, a sink's
    occupancy and occupied-VC mask) are checked here the slow way, each
    marked "Endpoint clause".  ``_check_direction`` and the engine hooks
    are unchanged and inherited."""

    def run_checks(self, sim: "Simulator", cycle: int) -> None:
        """One full sweep of every enabled checker."""
        cfg = self.config
        if cfg.flit_conservation:
            self._check_conservation(sim, cycle)
        if cfg.credit_accounting:
            self._check_credits(sim, cycle)
        if cfg.vc_states:
            self._check_vc_states(sim, cycle)
        if cfg.routing_conformance:
            self._check_routing(sim, cycle)
        self.checks_run += 1

    def _check_conservation(self, sim: "Simulator", cycle: int) -> None:
        for source in sim.sources:
            # Endpoint clause: the pending count against the queue.
            current = source._current_flits or []
            queued = len(current) + sum(p.size for p in source.queue)
            if source.pending_flits != queued:
                raise InvariantViolation(
                    "flit_conservation",
                    f"source counts {source.pending_flits} pending flits, "
                    f"its queue and current packet hold {queued}",
                    cycle=cycle,
                    node=source.node,
                )
        offered = sum(s.offered_flits for s in sim.sources)
        pending = sum(s.pending_flits for s in sim.sources)
        ejected = sum(s.ejected_flits for s in sim.sinks)
        accepted = self.generated_flits - self.discarded_flits
        if accepted != offered:
            raise InvariantViolation(
                "flit_conservation",
                f"sources offered {offered} flits but the generator "
                f"produced {self.generated_flits} "
                f"({self.discarded_flits} discarded)",
                cycle=cycle,
            )
        if sim._source_backlog != pending:
            raise InvariantViolation(
                "flit_conservation",
                f"engine source backlog {sim._source_backlog} != "
                f"recounted pending flits {pending}",
                cycle=cycle,
            )
        buffered = sim.total_buffered_flits()
        if sim._flits_in_network != buffered:
            raise InvariantViolation(
                "flit_conservation",
                f"engine in-network counter {sim._flits_in_network} != "
                f"recounted buffered flits {buffered}",
                cycle=cycle,
            )
        total = self.discarded_flits + pending + buffered + ejected
        if self.generated_flits != total:
            raise InvariantViolation(
                "flit_conservation",
                f"generated {self.generated_flits} flits != "
                f"{self.discarded_flits} discarded + {pending} pending + "
                f"{buffered} in-network + {ejected} delivered",
                cycle=cycle,
            )

    def _check_credits(self, sim: "Simulator", cycle: int) -> None:
        # Index the one-cycle pipelines once; the sweep below consumes
        # them keyed exactly as the engine stores them.
        wire_flits: Counter = Counter()
        for node, direction, vc, _flit in sim._flits_next:
            wire_flits[(node, direction, vc)] += 1
        wire_credits: Counter = Counter()
        for node, direction, vc in sim._credits_next:
            wire_credits[(node, direction, vc)] += 1
        sink_wire: Counter = Counter()
        for node, vc, _flit in sim._sink_next:
            sink_wire[(node, vc)] += 1
        held: Counter = Counter()
        fm = sim.faults
        if fm is not None:
            problem = fm.mask_violation()
            if problem is not None:
                raise InvariantViolation(
                    "credit_accounting", problem, cycle=cycle
                )
            for node, direction, vc in fm.held_snapshot():
                held[(node, direction, vc)] += 1

        mesh = sim.mesh
        local = Direction.LOCAL
        for router in sim.routers:
            node = router.node
            for direction, port in router.output_ports.items():
                staged = [0] * port.num_vcs
                for _flit, vc in port.fifo:
                    staged[vc] += 1
                if direction is local:
                    sink = sim.sinks[node]
                    downstream = [
                        len(sink.buffers[vc]) + sink_wire[(node, vc)]
                        for vc in range(port.num_vcs)
                    ]
                else:
                    nbr = mesh.neighbor(node, direction)
                    in_dir = OPPOSITE[direction]
                    fifos = sim.routers[nbr].input_vcs[in_dir]
                    downstream = [
                        len(fifos[vc].fifo) + wire_flits[(nbr, in_dir, vc)]
                        for vc in range(port.num_vcs)
                    ]
                depth = port.downstream_depth
                for vc in range(port.num_vcs):
                    total = (
                        port.credits[vc]
                        + staged[vc]
                        + downstream[vc]
                        + wire_credits[(node, direction, vc)]
                        + held[(node, direction, vc)]
                    )
                    if total != depth:
                        raise InvariantViolation(
                            "credit_accounting",
                            f"{port.credits[vc]} credits + {staged[vc]} "
                            f"staged + {downstream[vc]} downstream + "
                            f"{wire_credits[(node, direction, vc)]} "
                            f"returning + {held[(node, direction, vc)]} "
                            f"fault-held = {total}, expected the buffer "
                            f"depth {depth}",
                            cycle=cycle,
                            node=node,
                            direction=direction,
                            vc=vc,
                        )

    def _check_vc_states(self, sim: "Simulator", cycle: int) -> None:
        for sink in sim.sinks:
            # Endpoint clauses: the occupancy count and the occupied-VC
            # mask against the buffers.
            total = sum(len(buffer) for buffer in sink.buffers)
            if sink.occupancy != total:
                raise InvariantViolation(
                    "vc_states",
                    f"sink counts {sink.occupancy} buffered flits, its "
                    f"buffers hold {total}",
                    cycle=cycle,
                    node=sink.node,
                    direction=Direction.LOCAL,
                )
            occupied = sum(
                1 << vc for vc, buffer in enumerate(sink.buffers) if buffer
            )
            for vc in range(max(sink._occupied, occupied).bit_length()):
                if (sink._occupied >> vc) & 1 != (occupied >> vc) & 1:
                    raise InvariantViolation(
                        "vc_states",
                        f"sink occupied-VC mask {sink._occupied:#b} "
                        f"disagrees with its buffers, which say "
                        f"{occupied:#b}",
                        cycle=cycle,
                        node=sink.node,
                        direction=Direction.LOCAL,
                        vc=vc,
                    )
        for router in sim.routers:
            node = router.node
            buffered = 0
            routing_keys = set()
            claims: Counter = Counter()
            for direction, vcs in router.input_vcs.items():
                mask = router._occupied_masks[direction]
                for ivc in vcs:
                    problem = ivc.legality_violation()
                    if problem is not None:
                        raise InvariantViolation(
                            "vc_states",
                            problem,
                            cycle=cycle,
                            node=node,
                            direction=direction,
                            vc=ivc.index,
                        )
                    occ = len(ivc.fifo)
                    buffered += occ
                    if bool((mask >> ivc.index) & 1) != bool(occ):
                        raise InvariantViolation(
                            "vc_states",
                            f"occupancy bitmask disagrees with a "
                            f"{occ}-flit FIFO",
                            cycle=cycle,
                            node=node,
                            direction=direction,
                            vc=ivc.index,
                        )
                    if ivc.state is VcState.ROUTING:
                        routing_keys.add((direction, ivc.index))
                    elif ivc.state is VcState.ACTIVE:
                        claims[(ivc.out_direction, ivc.out_vc)] += 1
            pending_keys = set(router._pending)
            if pending_keys != routing_keys:
                raise InvariantViolation(
                    "vc_states",
                    f"pending-allocation index {sorted(pending_keys)} != "
                    f"ROUTING VCs {sorted(routing_keys)}",
                    cycle=cycle,
                    node=node,
                )
            if buffered != router.buffered_input_flits:
                raise InvariantViolation(
                    "vc_states",
                    f"router counts {router.buffered_input_flits} buffered "
                    f"input flits, recount says {buffered}",
                    cycle=cycle,
                    node=node,
                )
            staged = sum(len(p.fifo) for p in router.output_ports.values())
            if staged != router.staged_flits:
                raise InvariantViolation(
                    "vc_states",
                    f"router counts {router.staged_flits} staged flits, "
                    f"recount says {staged}",
                    cycle=cycle,
                    node=node,
                )
            if router.inflight != buffered + staged:
                raise InvariantViolation(
                    "vc_states",
                    f"router counts {router.inflight} inflight flits, "
                    f"recount says {buffered} buffered + {staged} staged",
                    cycle=cycle,
                    node=node,
                )
            for direction, port in router.output_ports.items():
                problem = parent_consistency_violation(port)
                if problem is not None:
                    raise InvariantViolation(
                        "vc_states",
                        problem,
                        cycle=cycle,
                        node=node,
                        direction=direction,
                    )
                if port.fresh and not (
                    router.inflight or router.credit_pending
                ):
                    # A fresh set must be consumed by the very next
                    # allocation round; a router holding one must
                    # therefore be scheduled to run that round.
                    raise InvariantViolation(
                        "vc_states",
                        "freshly-released VC set on a router no longer "
                        "scheduled for an allocation round",
                        cycle=cycle,
                        node=node,
                        direction=direction,
                    )
                for vc in range(port.num_vcs):
                    holders = claims[(direction, vc)]
                    if (port.allocated >> vc) & 1:
                        if holders != 1:
                            raise InvariantViolation(
                                "vc_states",
                                f"allocated downstream VC held by "
                                f"{holders} ACTIVE input VCs, expected "
                                f"exactly one",
                                cycle=cycle,
                                node=node,
                                direction=direction,
                                vc=vc,
                            )
                    elif holders:
                        raise InvariantViolation(
                            "vc_states",
                            f"{holders} ACTIVE input VCs hold an "
                            f"unallocated downstream VC",
                            cycle=cycle,
                            node=node,
                            direction=direction,
                            vc=vc,
                        )

    def _check_routing(self, sim: "Simulator", cycle: int) -> None:
        mesh = sim.mesh
        local = Direction.LOCAL
        for router in sim.routers:
            node = router.node
            for direction, vcs in router.input_vcs.items():
                for ivc in vcs:
                    head = ivc.front()
                    state = ivc.state
                    if state is VcState.ROUTING:
                        committed = ivc.committed_dir
                        if committed is not None and head is not None:
                            self._check_direction(
                                sim, node, head, committed,
                                cycle, direction, ivc.index,
                            )
                    elif state is VcState.ACTIVE and head is not None:
                        out_dir = ivc.out_direction
                        out_vc = ivc.out_vc
                        self._check_direction(
                            sim, node, head, out_dir,
                            cycle, direction, ivc.index,
                        )
                        port = router.output_ports[out_dir]
                        evcs = port.escape_vcs
                        if out_vc in evcs and out_dir is not local:
                            if out_dir is not mesh.dor_direction(
                                node, head.dst
                            ):
                                raise InvariantViolation(
                                    "routing_conformance",
                                    f"escape VC granted on {out_dir.name},"
                                    f" but Duato's escape condition "
                                    f"requires the DOR port "
                                    f"{mesh.dor_direction(node, head.dst).name}"
                                    f" towards {head.dst}",
                                    cycle=cycle,
                                    node=node,
                                    direction=direction,
                                    vc=ivc.index,
                                )
                            if len(evcs) > 1:
                                expected = evcs[
                                    mesh.wrap_vc_class(
                                        node, head.dst, out_dir
                                    )
                                ]
                                if out_vc != expected:
                                    raise InvariantViolation(
                                        "routing_conformance",
                                        f"escape VC {out_vc} granted for "
                                        f"a hop whose dateline class "
                                        f"requires escape VC {expected}",
                                        cycle=cycle,
                                        node=node,
                                        direction=direction,
                                        vc=ivc.index,
                                    )
                        elif (
                            mesh.num_vc_classes > 1
                            and out_dir is not local
                        ):
                            cls = sim.routing.vc_class(
                                port.num_vcs, out_vc
                            )
                            if cls is not None and cls != mesh.wrap_vc_class(
                                node, head.dst, out_dir
                            ):
                                raise InvariantViolation(
                                    "routing_conformance",
                                    f"VC {out_vc} of dateline class "
                                    f"{cls} granted for a hop of class "
                                    f"{mesh.wrap_vc_class(node, head.dst, out_dir)}",
                                    cycle=cycle,
                                    node=node,
                                    direction=direction,
                                    vc=ivc.index,
                                )
                        owner = port.owner_dst[out_vc]
                        if owner != head.dst:
                            raise InvariantViolation(
                                "routing_conformance",
                                f"VC owned by destination {owner} carries "
                                f"a packet to {head.dst} (footprint "
                                f"same-destination property)",
                                cycle=cycle,
                                node=node,
                                direction=out_dir,
                                vc=out_vc,
                            )


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


#: The checker selections both sweeps run under: everything (where the
#: first checker to object hides the rest), and each checker alone.
SELECTIONS = {
    "all": ValidationConfig(),
    **{name: ValidationConfig.only(name) for name in CHECKER_NAMES},
}


@functools.lru_cache(maxsize=None)
def snapshot(name):
    """A clean run ``steps`` cycles in, and per checker selection the
    (one-walk, reference) pair of sweeps that will judge its corruptions."""
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
        pair = (InvariantChecker(validation), ReferenceChecker(validation))
        for checker in pair:
            checker.generated_flits = sim.validator.generated_flits
            checker.discarded_flits = sim.validator.discarded_flits
        sweeps[selection] = pair
    return sim, sweeps


def outcome(checker, sim):
    """What one sweep says about ``sim``: ``None`` or where it objected."""
    try:
        checker.run_checks(sim, sim.cycle)
    except InvariantViolation as exc:
        text = str(exc)
        if "occupancy bitmask" in text:
            # Reworded: the mask is now compared whole, then located.
            text = "occupancy bitmask"
        return (exc.checker, exc.node, exc.direction, exc.vc, text)
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
def test_census_sweep_matches_reference_sweep(name, corrupt, rnd):
    sim, sweeps = snapshot(name)
    undo = corrupt(sim, rnd)
    assume(undo is not None)
    try:
        agree(sim, sweeps, corrupt.__name__)
    finally:
        undo()
    assert outcome(sim.validator, sim) is None, "undo left damage behind"


def agree(sim, sweeps, label):
    """Both sweeps' outcome under every checker selection, which must be
    the same: ``{selection: outcome}``."""
    seen = {}
    for selection, (one_walk, reference) in sweeps.items():
        seen[selection] = outcome(reference, sim)
        assert outcome(one_walk, sim) == seen[selection], (label, selection)
    return seen


def test_snapshots_are_clean_and_cover_the_fast_paths():
    for name in SNAPSHOTS:
        sim, sweeps = snapshot(name)
        for one_walk, reference in sweeps.values():
            assert outcome(reference, sim) is None
            assert outcome(one_walk, sim) is None
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
def test_two_corruptions_at_two_routers_match_reference(name, a, b, rnd):
    sim, sweeps = snapshot(name)
    undo = []
    try:
        for corrupt, router in zip((a, b), rnd.sample(sim.routers, 2)):
            undo.append(corrupt(sim, router, rnd))
            assume(undo[-1] is not None)
        agree(sim, sweeps, (a.__name__, b.__name__))
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
        seen = agree(sim, sweeps, "ordering")
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


@pytest.mark.parametrize("clause", sorted(RESET_CLAUSES))
def test_each_port_reset_clause_reaches_a_recount(clause):
    sim, sweeps, router, direction, port = idle_reset_port()
    undo = RESET_CLAUSES[clause](sim, router, direction, port)
    try:
        seen = agree(sim, sweeps, clause)
    finally:
        undo()
    assert seen["all"] is not None, clause
    assert outcome(sim.validator, sim) is None, "undo left damage behind"
