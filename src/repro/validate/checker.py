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

One census, four consumers: each sweep walks the input VCs once and
lists, per router, those out of their *reset state* (IDLE, empty FIFO,
no output registers, no route commitment — see
:func:`~repro.router.vcstate.non_reset_vcs`).  A reset VC is legal,
buffers nothing, claims nothing and routes nothing, so every checker
recounts from that list alone; output ports and credit loops in their
own reset state (all credits home, nothing allocated, staged, on a wire
or fault-held) are likewise verified by one comparison and only the
rest are recounted per VC.  Every object is still examined every
checked cycle.  The catalogue:

* **flit_conservation** — every flit ever generated is exactly one of:
  discarded at a dead source, waiting in a source queue, buffered in the
  network (router FIFOs, link pipelines, sink buffers), or delivered.
  The engine's incremental ``_flits_in_network`` / ``_source_backlog``
  counters must match the recount.
* **credit_accounting** — for every (router, output port, VC): free
  credits + staged flits + flits on the wire + downstream buffer
  occupancy + credits on the return wire + fault-held credits equals the
  downstream buffer depth.  Nothing is ever lost on a severed wire.
* **vc_states** — per-VC state-machine legality (IDLE/ROUTING/ACTIVE
  register consistency, head/body/tail wormhole ordering, no packet
  interleaving within a VC), the allocated-output-VC <-> ACTIVE-input-VC
  bijection, and every incrementally-maintained router/port cache.
* **routing_conformance** — committed routes stay inside the routing
  algorithm's allowed-direction set (the minimal quadrant for the
  adaptive algorithms), escape-VC grants sit on the DOR port (Duato's
  escape condition), and a busy VC carries only its owner destination's
  packets (the footprint same-destination property).

Violations raise :class:`~repro.exceptions.InvariantViolation` with
cycle/router/port/VC context.  A :class:`ValidationConfig` ``mutate``
hook deliberately corrupts one piece of state mid-run (see
:mod:`repro.validate.mutations`) so tests can prove each checker fires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import InvariantViolation
from repro.router.vcstate import VcState, non_reset_vcs
from repro.topology.ports import OPPOSITE, Direction
from repro.validate.config import ValidationConfig

if TYPE_CHECKING:
    from repro.router.flit import Packet
    from repro.router.router import Router
    from repro.router.vcstate import InputVc
    from repro.sim.engine import Simulator

    #: Per router, its input VCs that are out of their reset state.
    Census = list[tuple[Router, list[InputVc]]]


#: Positions in a credit-claim index entry (see ``_check_credits``).
_DOWNSTREAM, _RETURNING, _HELD = range(3)


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
    # The checks
    # ------------------------------------------------------------------
    def run_checks(self, sim: "Simulator", cycle: int) -> None:
        """One full sweep of every enabled checker over one census."""
        cfg = self.config
        # Per router, the input VCs out of their reset state.
        census = [(r, non_reset_vcs(r.input_vcs)) for r in sim.routers]
        if cfg.flit_conservation:
            self._check_conservation(sim, cycle, census)
        if cfg.credit_accounting:
            self._check_credits(sim, cycle, census)
        if cfg.vc_states:
            self._check_vc_states(cycle, census)
        if cfg.routing_conformance:
            self._check_routing(sim, cycle, census)
        self.checks_run += 1

    def _check_conservation(
        self, sim: "Simulator", cycle: int, census: "Census"
    ) -> None:
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
        buffered = len(sim._flits_next) + len(sim._sink_next)
        buffered += sum(s.occupancy for s in sim.sinks)
        buffered += sum(len(ivc.fifo) for _r, live in census for ivc in live)
        buffered += sum(
            len(p.fifo) for r, _live in census for p in r.output_ports.values()
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

    def _check_credits(
        self, sim: "Simulator", cycle: int, census: "Census"
    ) -> None:
        # Every claim on a downstream buffer slot other than a staged
        # flit, indexed by the output port that spent the credit:
        # (node, direction) -> per-VC (downstream, returning, held) counts.
        claims: dict[tuple[int, Direction], tuple[list, list, list]] = {}
        zeros = [0] * sim.config.num_vcs
        unclaimed = (zeros, zeros, zeros)

        def claim(node: int, direction: Direction, kind: int, vc: int, n=1):
            entry = claims.get((node, direction))
            if entry is None:
                entry = (zeros.copy(), zeros.copy(), zeros.copy())
                claims[(node, direction)] = entry
            entry[kind][vc] += n

        mesh = sim.mesh
        local = Direction.LOCAL
        for router, live in census:
            for ivc in live:
                in_dir = ivc.direction
                if ivc.fifo and in_dir is not local:
                    claim(
                        mesh.neighbor(router.node, in_dir), OPPOSITE[in_dir],
                        _DOWNSTREAM, ivc.index, len(ivc.fifo),
                    )
        for node, in_dir, vc, _flit in sim._flits_next:
            claim(
                mesh.neighbor(node, in_dir), OPPOSITE[in_dir], _DOWNSTREAM, vc
            )
        for sink in sim.sinks:
            for vc, buffer in enumerate(sink.buffers):
                if buffer:
                    claim(sink.node, local, _DOWNSTREAM, vc, len(buffer))
        for node, vc, _flit in sim._sink_next:
            claim(node, local, _DOWNSTREAM, vc)
        for node, direction, vc in sim._credits_next:
            claim(node, direction, _RETURNING, vc)
        fm = sim.faults
        if fm is not None:
            problem = fm.mask_violation()
            if problem is not None:
                raise InvariantViolation(
                    "credit_accounting", problem, cycle=cycle
                )
            for node, direction, vc in fm.held_snapshot():
                claim(node, direction, _HELD, vc)

        for router, _live in census:
            node = router.node
            for direction, port in router.output_ports.items():
                entry = claims.get((node, direction), unclaimed)
                depth = port.downstream_depth
                if (
                    entry is unclaimed
                    and not port.fifo
                    and port.credits.count(depth) == port.num_vcs
                ):
                    # Every credit is home and nothing claims a slot: the
                    # per-VC sums below are ``depth + 0 + 0 + 0 + 0``.
                    continue
                downstream, returning, held = entry
                staged = [0] * port.num_vcs
                for _flit, vc in port.fifo:
                    staged[vc] += 1
                for vc in range(port.num_vcs):
                    total = (
                        port.credits[vc]
                        + staged[vc]
                        + downstream[vc]
                        + returning[vc]
                        + held[vc]
                    )
                    if total != depth:
                        raise InvariantViolation(
                            "credit_accounting",
                            f"{port.credits[vc]} credits + {staged[vc]} "
                            f"staged + {downstream[vc]} downstream + "
                            f"{returning[vc]} returning + {held[vc]} "
                            f"fault-held = {total}, expected the buffer "
                            f"depth {depth}",
                            cycle=cycle,
                            node=node,
                            direction=direction,
                            vc=vc,
                        )

    def _check_vc_states(self, cycle: int, census: "Census") -> None:
        for router, live in census:
            node = router.node
            buffered = 0
            masks = [0] * len(router._occupied_masks)
            routing_keys = set()
            # Output direction -> {downstream VC: ACTIVE input VCs on it}.
            claims: dict[Direction, dict[int, int]] = {}
            for ivc in live:
                problem = ivc.legality_violation()
                if problem is not None:
                    raise InvariantViolation(
                        "vc_states",
                        problem,
                        cycle=cycle,
                        node=node,
                        direction=ivc.direction,
                        vc=ivc.index,
                    )
                occ = len(ivc.fifo)
                if occ:
                    buffered += occ
                    masks[ivc.direction] |= 1 << ivc.index
                if ivc.state is VcState.ROUTING:
                    routing_keys.add((ivc.direction, ivc.index))
                elif ivc.state is VcState.ACTIVE:
                    holders = claims.setdefault(ivc.out_direction, {})
                    holders[ivc.out_vc] = holders.get(ivc.out_vc, 0) + 1
            if masks != router._occupied_masks:
                for direction, mask in enumerate(router._occupied_masks):
                    wrong = mask ^ masks[direction]
                    if wrong:
                        raise InvariantViolation(
                            "vc_states",
                            f"occupancy bitmask {mask:#b} disagrees with "
                            f"the FIFOs, which say {masks[direction]:#b}",
                            cycle=cycle,
                            node=node,
                            direction=Direction(direction),
                            vc=(wrong & -wrong).bit_length() - 1,
                        )
            if router._pending.keys() != routing_keys:
                raise InvariantViolation(
                    "vc_states",
                    f"pending-allocation index {sorted(router._pending)} != "
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
                problem = port.consistency_violation()
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
                holders = claims.get(direction)
                if holders is None:
                    if not port.allocated:
                        continue  # nothing allocated, nothing claimed
                    holders = {}
                for vc in range(port.num_vcs):
                    held_by = holders.get(vc, 0)
                    if (port.allocated >> vc) & 1:
                        if held_by != 1:
                            raise InvariantViolation(
                                "vc_states",
                                f"allocated downstream VC held by "
                                f"{held_by} ACTIVE input VCs, expected "
                                f"exactly one",
                                cycle=cycle,
                                node=node,
                                direction=direction,
                                vc=vc,
                            )
                    elif held_by:
                        raise InvariantViolation(
                            "vc_states",
                            f"{held_by} ACTIVE input VCs hold an "
                            f"unallocated downstream VC",
                            cycle=cycle,
                            node=node,
                            direction=direction,
                            vc=vc,
                        )

    def _check_routing(
        self, sim: "Simulator", cycle: int, census: "Census"
    ) -> None:
        mesh = sim.mesh
        local = Direction.LOCAL
        for router, live in census:
            node = router.node
            for ivc in live:
                direction = ivc.direction
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
                        if out_dir is not mesh.dor_direction(node, head.dst):
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
                                mesh.wrap_vc_class(node, head.dst, out_dir)
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
                    elif mesh.num_vc_classes > 1 and out_dir is not local:
                        cls = sim.routing.vc_class(port.num_vcs, out_vc)
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
