"""Cycle-level invariant checkers.

The :class:`InvariantChecker` is the validation counterpart of the
telemetry hub: the engine owns at most one (``Simulator.validator``,
``None`` when validation is off) and calls a handful of hooks per cycle.
Every hook site is guarded by a single hoisted ``is not None`` check, so
a run without validation pays one attribute read per site — the same
null-object pattern as telemetry (``benchmarks/perf`` measures the cost
of switching the checkers on: ``validate.*.slowdown``).

The checkers observe; they never mutate simulator state and never touch
an RNG stream, so a validated run is bit-identical to an unvalidated
one.  Checks run *between* pipeline stages — at the end of each cycle,
after stage 6 — where the engine's incremental counters, the one-cycle
link pipelines, and every router's registers must agree with a
from-scratch recount.

One walk per checked cycle: a sweep visits every endpoint, input VC and
output port once, in three passes.  Pass 0 indexes the link pipelines,
the sink buffers and the fault-held credits into claims per output port
and recounts the endpoints' caches; pass 1 is the census of the input
VCs out of their *reset state* (IDLE, empty FIFO, no output registers,
no route commitment — see :func:`~repro.router.vcstate.non_reset_vcs`),
and everything the checkers need of an input VC comes from that list;
pass 2 compares every output port with *its* reset state (nothing staged,
allocated or indexed, every credit home, no claim on it and no holder of
its VCs), which passes all three checkers' port clauses at once, and
recounts only the rest.  Every object is still examined every checked
cycle.  The catalogue:

* **flit_conservation** — every flit ever generated is exactly one of:
  discarded at a dead source, waiting in a source queue, buffered in the
  network (router FIFOs, link pipelines, sink buffers), or delivered.
  Each source's pending count and the engine's incremental
  ``_flits_in_network`` / ``_source_backlog`` counters must match the
  recount.
* **credit_accounting** — for every (router, output port, VC): free
  credits + staged flits + flits on the wire + downstream buffer
  occupancy + credits on the return wire + fault-held credits equals the
  downstream buffer depth.  Nothing is ever lost on a severed wire.
* **vc_states** — per-VC state-machine legality (IDLE/ROUTING/ACTIVE
  register consistency, head/body/tail wormhole ordering, no packet
  interleaving within a VC), the allocated-output-VC <-> ACTIVE-input-VC
  bijection, and every incrementally-maintained router/port/sink cache.
* **routing_conformance** — committed routes stay inside the routing
  algorithm's allowed-direction set (the minimal quadrant for the
  adaptive algorithms), escape-VC grants sit on the DOR port (Duato's
  escape condition), and a busy VC carries only its owner destination's
  packets (the footprint same-destination property).

Each checker's first violation is kept in the order that checker scans
(sinks, then routers; within a router its VCs, then its counters, then
its ports, each in index order), and the sweep raises the first of them
in catalogue order, as if the checkers had run one after another.
Violations raise :class:`~repro.exceptions.InvariantViolation` with
cycle/router/port/VC context.  A :class:`ValidationConfig` ``mutate``
hook deliberately corrupts one piece of state mid-run (see
:mod:`repro.validate.mutations`) so tests can prove each checker fires.
"""

from __future__ import annotations

from operator import add
from typing import TYPE_CHECKING

from repro.exceptions import InvariantViolation
from repro.router.vcstate import VcState, non_reset_vcs
from repro.routing.requests import bits
from repro.topology.ports import OPPOSITE, Direction
from repro.validate.config import ValidationConfig

if TYPE_CHECKING:
    from repro.router.flit import Packet
    from repro.router.router import Router
    from repro.router.vcstate import InputVc
    from repro.sim.engine import Simulator


#: Positions in a credit-claim index entry (see ``run_checks``): per-VC
#: counts by kind, and their per-VC sum.
_DOWNSTREAM, _RETURNING, _HELD, _CLAIMED = range(4)


class InvariantChecker:
    """Runs the enabled invariant checks against a live simulator."""

    def __init__(self, config: ValidationConfig) -> None:
        self.config = config
        #: Flits of every packet the traffic generator produced.
        self.generated_flits = 0
        #: Flits of packets discarded at a dead source (fault model).
        self.discarded_flits = 0
        #: Completed check sweeps (for reporting/tests).
        self.checks_run = 0
        # Allowed-direction memo: routing geometry is static for a run,
        # so (node, dst, src) -> frozenset of legal output directions.
        self._allowed: dict[tuple[int, int, int], frozenset] = {}
        self._mutator = None
        if config.mutate is not None:
            from repro.validate.mutations import Mutator

            self._mutator = Mutator(
                config.mutate, config.mutate_cycle, config.mutate_seed
            )

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def packet_generated(self, packet: "Packet", discarded: bool) -> None:
        """Stage-6 hook: a packet left the traffic generator."""
        self.generated_flits += packet.size
        if discarded:
            self.discarded_flits += packet.size

    def end_cycle(self, sim: "Simulator", cycle: int) -> None:
        """Run the enabled checks at the end of a simulated cycle."""
        mutator = self._mutator
        if mutator is not None and not mutator.applied:
            mutator.maybe_apply(sim, cycle)
        self.run_checks(sim, cycle)

    def on_skip(self, sim: "Simulator", cycle: int, target: int) -> None:
        """Verify the network really is quiescent before an idle jump."""
        if (
            sim._flits_in_network
            or sim._source_backlog
            or sim._flits_next
            or sim._credits_next
            or sim._sink_next
        ):
            raise InvariantViolation(
                "idle_skip",
                f"idle-cycle jump to {target} while engine counters "
                f"report live state",
                cycle=cycle,
            )
        for router in sim.routers:
            if router.inflight or router.staged_flits:
                raise InvariantViolation(
                    "idle_skip",
                    "idle-cycle jump over a router with buffered flits",
                    cycle=cycle,
                    node=router.node,
                )
        for sink in sim.sinks:
            if sink.occupancy:
                raise InvariantViolation(
                    "idle_skip",
                    "idle-cycle jump over a sink with buffered flits",
                    cycle=cycle,
                    node=sink.node,
                )
        for source in sim.sources:
            if source.pending_flits:
                raise InvariantViolation(
                    "idle_skip",
                    "idle-cycle jump over a source with pending flits",
                    cycle=cycle,
                    node=source.node,
                )

    def finish(self, sim: "Simulator") -> None:
        """End-of-run sweep, then the mutation-never-applied check."""
        self.run_checks(sim, sim.cycle)
        mutator = self._mutator
        if mutator is not None and not mutator.applied:
            raise InvariantViolation(
                "self_test",
                f"mutation {self.config.mutate!r} found no corruptible "
                f"state before the run ended",
                cycle=sim.cycle,
            )


    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def run_checks(self, sim: "Simulator", cycle: int) -> None:
        """One sweep of every enabled checker: three passes, each object
        visited once, work for disabled checkers skipped."""
        cfg = self.config
        conserve = cfg.flit_conservation
        routing_on = cfg.routing_conformance
        routers = sim.routers
        mesh = sim.mesh
        num_vcs = sim.config.num_vcs
        zeros = [0] * num_vcs
        local = Direction.LOCAL
        # The first violation of the middle two checkers.  Flit
        # conservation's are raised first, routing conformance runs on a
        # sweep nothing else objected to.
        credit_problem = vc_problem = None
        credit_open = cfg.credit_accounting
        # vc_states still checks the routers below this index: once
        # router i is found wrong, nothing after it can be reported.
        vc_until = len(routers) if cfg.vc_states else 0

        # Every claim on a downstream buffer slot other than a staged
        # flit, by the output port that spent the credit: claims[node]
        # maps a direction to per-VC (downstream, returning, held,
        # claimed) counts.
        claims: list[dict | None] = [None] * len(routers)

        def claim(node: int, direction: Direction, kind: int, vc: int, n=1):
            port_claims = claims[node]
            if port_claims is None:
                port_claims = claims[node] = {}
            entry = port_claims.get(direction)
            if entry is None:
                entry = port_claims[direction] = (
                    zeros.copy(), zeros.copy(), zeros.copy(), zeros.copy()
                )
            entry[kind][vc] += n
            entry[_CLAIMED][vc] += n

        # -- Pass 0: sources, sinks, link pipelines, fault-held credits.
        offered = pending = sink_flits = ejected = 0
        if conserve:
            for source in sim.sources:
                offered += source.offered_flits
                flits = source.pending_flits
                pending += flits
                current = source._current_flits
                if flits or current or source.queue:
                    queued = len(current) if current else 0
                    for packet in source.queue:
                        queued += packet.size
                    if flits != queued:
                        raise InvariantViolation(
                            "flit_conservation",
                            f"source counts {flits} pending flits, its "
                            f"queue and current packet hold {queued}",
                            cycle=cycle,
                            node=source.node,
                        )
        if conserve or credit_open or vc_until:
            for sink in sim.sinks:
                ejected += sink.ejected_flits
                sink_flits += sink.occupancy
                total = occupied = 0
                if (credit_open or vc_until) and any(sink.buffers):
                    for vc, buffer in enumerate(sink.buffers):
                        if buffer:
                            total += len(buffer)
                            occupied |= 1 << vc
                            if credit_open:
                                claim(
                                    sink.node, local, _DOWNSTREAM, vc,
                                    len(buffer),
                                )
                if vc_until and (
                    sink.occupancy != total or sink._occupied != occupied
                ):
                    vc_problem = _sink_violation(sink, total, occupied, cycle)
                    vc_until = 0
        if credit_open:
            for node, in_dir, vc, _flit in sim._flits_next:
                claim(
                    mesh.neighbor(node, in_dir), OPPOSITE[in_dir],
                    _DOWNSTREAM, vc,
                )
            for node, vc, _flit in sim._sink_next:
                claim(node, local, _DOWNSTREAM, vc)
            for node, direction, vc in sim._credits_next:
                claim(node, direction, _RETURNING, vc)
            fm = sim.faults
            if fm is not None:
                problem = fm.mask_violation()
                if problem is not None:
                    credit_problem = InvariantViolation(
                        "credit_accounting", problem, cycle=cycle
                    )
                    credit_open = False
                for node, direction, vc in fm.held_snapshot():
                    claim(node, direction, _HELD, vc)

        # -- Pass 1: the census.  A VC in its reset state buffers, claims,
        # holds and routes nothing and is legal, so the VCs it lists feed
        # every input-side check.
        buffered = 0
        # Per router, its ACTIVE VCs' output direction -> their out_vcs.
        holders: list[dict | None] = [None] * len(routers)
        # ROUTING VCs with a committed port and ACTIVE VCs, with a head.
        routed: list[tuple[Router, InputVc]] = []
        active = VcState.ACTIVE
        routing = VcState.ROUTING
        for index, router in enumerate(routers):
            live = non_reset_vcs(router.input_vcs)
            states = index < vc_until
            if not live and not (
                states
                and (
                    router.buffered_input_flits
                    or router._pending
                    or any(router._occupied_masks)
                )
            ):
                continue
            node = router.node
            count = 0
            if states:
                masks = [0] * len(router._occupied_masks)
                routing_keys = set()
            router_holders = None
            for ivc in live:
                fifo = ivc.fifo
                state = ivc.state
                if fifo:
                    count += len(fifo)
                    if credit_open and ivc.direction is not local:
                        claim(
                            mesh.neighbor(node, ivc.direction),
                            OPPOSITE[ivc.direction],
                            _DOWNSTREAM,
                            ivc.index,
                            len(fifo),
                        )
                    if routing_on and (
                        state is active
                        or state is routing and ivc.committed_dir is not None
                    ):
                        routed.append((router, ivc))
                if not states:
                    continue
                direction = ivc.direction
                problem = ivc.legality_violation()
                if problem is not None:
                    vc_problem = InvariantViolation(
                        "vc_states", problem, cycle=cycle, node=node,
                        direction=direction, vc=ivc.index,
                    )
                    states = False
                    vc_until = index
                    continue
                if fifo:
                    masks[direction] |= 1 << ivc.index
                if state is routing:
                    routing_keys.add((direction, ivc.index))
                elif state is active:
                    if router_holders is None:
                        router_holders = {}
                    router_holders.setdefault(ivc.out_direction, []).append(
                        ivc.out_vc
                    )
            buffered += count
            if not states:
                continue
            if masks != router._occupied_masks:
                for direction, mask in enumerate(router._occupied_masks):
                    wrong = mask ^ masks[direction]
                    if wrong:
                        vc_problem = InvariantViolation(
                            "vc_states",
                            f"occupancy bitmask {mask:#b} disagrees with "
                            f"the FIFOs, which say {masks[direction]:#b}",
                            cycle=cycle,
                            node=node,
                            direction=Direction(direction),
                            vc=(wrong & -wrong).bit_length() - 1,
                        )
                        break
            elif router._pending.keys() != routing_keys:
                vc_problem = InvariantViolation(
                    "vc_states",
                    f"pending-allocation index {sorted(router._pending)} != "
                    f"ROUTING VCs {sorted(routing_keys)}",
                    cycle=cycle,
                    node=node,
                )
            elif count != router.buffered_input_flits:
                vc_problem = InvariantViolation(
                    "vc_states",
                    f"router counts {router.buffered_input_flits} buffered "
                    f"input flits, recount says {count}",
                    cycle=cycle,
                    node=node,
                )
            if vc_problem is not None:
                vc_until = index
            holders[index] = router_holders

        # -- Pass 2: every output port once.  A port in its reset state
        # with no claim on it and no holder of its VCs passes every port
        # clause of the checkers on; the others are recounted.
        staged_flits = 0
        if credit_open or vc_until:
            depth = sim.config.vc_buffer_depth
            full = [depth] * num_vcs
            all_vcs = (1 << num_vcs) - 1
            for index, router in enumerate(routers):
                port_claims = claims[router.node] if credit_open else None
                router_holders = holders[index]
                states = index < vc_until
                staged = 0
                port_problem = None
                for direction, port in router.output_ports.items():
                    fifo = port.fifo
                    entry = port_claims and port_claims.get(direction)
                    held = router_holders and router_holders.get(direction)
                    if (
                        not fifo
                        and entry is None
                        and port.credits == full
                        and not (
                            states
                            and (
                                held is not None
                                or port.free != all_vcs
                                or port.allocated
                                or port._draining
                                or port.fresh
                                or port._accepted_this_cycle
                                or port._fp
                                or port._adaptive_credits
                                != depth * port.adaptive.bit_count()
                            )
                        )
                    ):
                        continue
                    staged += len(fifo)
                    if credit_open:
                        # Credits + staged + claimed, per VC, = depth.
                        owed = (entry[_CLAIMED] if entry else zeros).copy()
                        for _flit, vc in fifo:
                            owed[vc] += 1
                        if list(map(add, port.credits, owed)) != full:
                            credit_problem = _credit_violation(
                                router, port, entry, cycle
                            )
                            credit_open = False
                    if not states or port_problem is not None:
                        continue
                    held = sorted(held) if held else []
                    problem = port.consistency_violation()
                    if (
                        problem is not None
                        or port.fresh
                        and not (router.inflight or router.credit_pending)
                        or tuple(held) != bits(port.allocated)
                    ):
                        port_problem = _port_violation(
                            router, port, problem, held, cycle
                        )
                staged_flits += staged
                if not states:
                    continue
                buffered_here = router.buffered_input_flits
                if staged != router.staged_flits:
                    port_problem = InvariantViolation(
                        "vc_states",
                        f"router counts {router.staged_flits} staged flits, "
                        f"recount says {staged}",
                        cycle=cycle,
                        node=router.node,
                    )
                elif router.inflight != buffered_here + staged:
                    port_problem = InvariantViolation(
                        "vc_states",
                        f"router counts {router.inflight} inflight flits, "
                        f"recount says {buffered_here} buffered + {staged} "
                        f"staged",
                        cycle=cycle,
                        node=router.node,
                    )
                if port_problem is not None:
                    vc_problem = port_problem
                    vc_until = index
        elif conserve:
            for router in routers:
                for port in router.output_ports.values():
                    staged_flits += len(port.fifo)

        if conserve:
            buffered += staged_flits + sink_flits
            buffered += len(sim._flits_next) + len(sim._sink_next)
            self._check_totals(sim, cycle, offered, pending, buffered, ejected)
        if credit_problem is not None:
            raise credit_problem
        if vc_problem is not None:
            raise vc_problem
        if routing_on:
            self._check_routes(sim, cycle, routed)
        self.checks_run += 1

    def _check_totals(
        self,
        sim: "Simulator",
        cycle: int,
        offered: int,
        pending: int,
        buffered: int,
        ejected: int,
    ) -> None:
        """Flit conservation's sums, in the order it states them."""
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

    def _check_routes(
        self,
        sim: "Simulator",
        cycle: int,
        routed: "list[tuple[Router, InputVc]]",
    ) -> None:
        """Routing conformance of the routed VCs the census listed."""
        mesh = sim.mesh
        local = Direction.LOCAL
        for router, ivc in routed:
            node = router.node
            head = ivc.fifo[0]
            where = dict(cycle=cycle, node=node, direction=ivc.direction)
            if ivc.state is VcState.ROUTING:
                self._check_direction(
                    sim, node, head, ivc.committed_dir,
                    cycle, ivc.direction, ivc.index,
                )
                continue
            out_dir = ivc.out_direction
            out_vc = ivc.out_vc
            self._check_direction(
                sim, node, head, out_dir, cycle, ivc.direction, ivc.index
            )
            port = router.output_ports[out_dir]
            evcs = port.escape_vcs
            if out_vc in evcs and out_dir is not local:
                dor = mesh.dor_direction(node, head.dst)
                if out_dir is not dor:
                    raise InvariantViolation(
                        "routing_conformance",
                        f"escape VC granted on {out_dir.name}, but Duato's "
                        f"escape condition requires the DOR port "
                        f"{dor.name} towards {head.dst}",
                        vc=ivc.index,
                        **where,
                    )
                if len(evcs) > 1:
                    expected = evcs[
                        mesh.wrap_vc_class(node, head.dst, out_dir)
                    ]
                    if out_vc != expected:
                        raise InvariantViolation(
                            "routing_conformance",
                            f"escape VC {out_vc} granted for a hop whose "
                            f"dateline class requires escape VC {expected}",
                            vc=ivc.index,
                            **where,
                        )
            elif mesh.num_vc_classes > 1 and out_dir is not local:
                cls = sim.routing.vc_class(port.num_vcs, out_vc)
                hop = mesh.wrap_vc_class(node, head.dst, out_dir)
                if cls is not None and cls != hop:
                    raise InvariantViolation(
                        "routing_conformance",
                        f"VC {out_vc} of dateline class {cls} granted for "
                        f"a hop of class {hop}",
                        vc=ivc.index,
                        **where,
                    )
            owner = port.owner_dst[out_vc]
            if owner != head.dst:
                raise InvariantViolation(
                    "routing_conformance",
                    f"VC owned by destination {owner} carries a packet to "
                    f"{head.dst} (footprint same-destination property)",
                    cycle=cycle,
                    node=node,
                    direction=out_dir,
                    vc=out_vc,
                )

    def _check_direction(
        self,
        sim: "Simulator",
        node: int,
        head,
        chosen: Direction,
        cycle: int,
        in_direction: Direction,
        in_vc: int,
    ) -> None:
        dst = head.dst
        if chosen is Direction.LOCAL:
            if dst != node:
                raise InvariantViolation(
                    "routing_conformance",
                    f"ejection route for a packet to {dst}",
                    cycle=cycle,
                    node=node,
                    direction=in_direction,
                    vc=in_vc,
                )
            return
        key = (node, dst, head.src)
        allowed = self._allowed.get(key)
        if allowed is None:
            allowed = frozenset(
                sim.routing.allowed_directions(sim.mesh, node, dst, head.src)
            )
            self._allowed[key] = allowed
        if chosen not in allowed:
            names = sorted(d.name for d in allowed)
            raise InvariantViolation(
                "routing_conformance",
                f"route via {chosen.name} for a packet {head.src}->{dst}, "
                f"but '{sim.routing.name}' allows only {names}",
                cycle=cycle,
                node=node,
                direction=in_direction,
                vc=in_vc,
            )


def _sink_violation(
    sink, total: int, occupied: int, cycle: int
) -> InvariantViolation:
    """A sink's occupancy count, then its occupied-VC mask, against the
    flit total and the non-empty VCs of its buffers."""
    where = dict(cycle=cycle, node=sink.node, direction=Direction.LOCAL)
    if sink.occupancy != total:
        return InvariantViolation(
            "vc_states",
            f"sink counts {sink.occupancy} buffered flits, its buffers "
            f"hold {total}",
            **where,
        )
    wrong = sink._occupied ^ occupied
    return InvariantViolation(
        "vc_states",
        f"sink occupied-VC mask {sink._occupied:#b} disagrees with its "
        f"buffers, which say {occupied:#b}",
        vc=(wrong & -wrong).bit_length() - 1,
        **where,
    )


def _credit_violation(
    router: "Router", port, entry: tuple | None, cycle: int
) -> InvariantViolation | None:
    """The first VC of ``port`` whose credits and claims (``entry``, as
    pass 0 and 1 indexed them) miss the downstream buffer depth."""
    depth = port.downstream_depth
    per_vc = [0] * port.num_vcs
    for _flit, vc in port.fifo:
        per_vc[vc] += 1
    claimed = entry or ([0] * port.num_vcs,) * 3
    for vc, (credits, staged, down, returning, held) in enumerate(
        zip(port.credits, per_vc, *claimed[:_CLAIMED])
    ):
        total = credits + staged + down + returning + held
        if total != depth:
            return InvariantViolation(
                "credit_accounting",
                f"{credits} credits + {staged} staged + {down} downstream "
                f"+ {returning} returning + {held} fault-held = {total}, "
                f"expected the buffer depth {depth}",
                cycle=cycle,
                node=router.node,
                direction=port.direction,
                vc=vc,
            )
    return None


def _port_violation(
    router: "Router", port, problem: str | None, held: list, cycle: int
) -> InvariantViolation | None:
    """A port's own recount (``problem``), its fresh set, then the
    allocation bijection with the ACTIVE input VCs (``held``: the
    downstream VC each holds)."""
    where = dict(cycle=cycle, node=router.node, direction=port.direction)
    if problem is None and port.fresh and not (
        router.inflight or router.credit_pending
    ):
        # A fresh set must be consumed by the very next allocation
        # round; a router holding one must therefore be scheduled to run
        # that round.
        problem = (
            "freshly-released VC set on a router no longer scheduled for "
            "an allocation round"
        )
    if problem is not None:
        return InvariantViolation("vc_states", problem, **where)
    for vc in range(port.num_vcs):
        held_by = held.count(vc)
        if (port.allocated >> vc) & 1:
            if held_by != 1:
                return InvariantViolation(
                    "vc_states",
                    f"allocated downstream VC held by {held_by} ACTIVE "
                    f"input VCs, expected exactly one",
                    vc=vc,
                    **where,
                )
        elif held_by:
            return InvariantViolation(
                "vc_states",
                f"{held_by} ACTIVE input VCs hold an unallocated "
                f"downstream VC",
                vc=vc,
                **where,
            )
    return None
