"""The cycle-level simulation engine: one loop, two step functions.

The engine owns the mesh of routers, the per-node sources and sinks, and
the links between them.  Links and credit returns have one cycle of
latency; within a cycle the stages run in this order:

0. apply due fault transitions;
1. deliver flits and credits that completed their link traversal;
2. sinks drain at the ejection bandwidth (packets complete here);
3. link traversal — every output port puts at most one flit on its link;
4. route computation and VC allocation in every router;
5. switch allocation/traversal — flits move from input buffers to output
   staging FIFOs, producing upstream credit returns;
6. traffic generation and source injection.

**One loop.**  :meth:`Simulator.run` is the only statement of the run's
phases: warm-up, measurement, drain.  Packets created during the
measurement window are *measured*; the run ends early once
all of them have been delivered, or at the configured cycle limit (in
which case the result reports ``drained == False`` — the usual signature
of a saturated network).  The loop also owns idle-cycle skipping
(:meth:`Simulator._skip_idle_cycles`: when nothing is buffered, queued
or on a link, the clock jumps to the traffic generator's next event,
clamped to phase boundaries and fault transitions, bit-identically to
stepping), the progress watchdog (:meth:`Simulator._watchdog` raises
:class:`~repro.exceptions.SimulationError` when no flit moves for
:data:`DEADLOCK_WINDOW` cycles with packets in flight — the
deadlock-freedom tests rely on it), the ejection accounting and the
result assembly.

**Two step functions.**  Stages 0-2 and stage 6 plus the cycle
epilogue live once, in :meth:`Simulator._begin_cycle` and
:meth:`Simulator._end_cycle`; the step functions differ in stages 3-5.
:meth:`Simulator._step_fast` (``engine_mode="skip"``, the default) only
visits routers that can make progress this cycle — those with buffered
flits, plus those that just received a credit (a returning credit can
release an output VC under atomic reallocation, and the allocation round
must observe and then clear the freshly-released set that cycle) — and
reads link endpoints from a table precomputed per router.
:meth:`Simulator._step_legacy` (``engine_mode="legacy"``) visits every
router, asks the topology for each neighbour, and is never skipped over:
it is the reference ``skip`` is compared against (``repro validate``,
the differential tests), produces bit-identical results, and is
reachable only as ``Simulator(config, engine_mode="legacy")``.

Fault injection: when the configuration carries a non-empty
:class:`~repro.faults.schedule.FaultSchedule`, the engine consults a
:class:`~repro.faults.manager.FaultManager` each cycle.  The fault model
is *freeze*, never *drop*: a dead router is skipped in every pipeline
stage (its buffered flits sit frozen until a heal), packets generated at
a dead endpoint are discarded at generation time (but still counted as
offered/created, so ``delivered_fraction`` reflects the loss), and a
dead link stops launching flits while credits crossing its severed
reverse wire are *held* by the manager and re-delivered on heal —
flow-control state is never corrupted.  The watchdog downgrades a
no-progress stall into a graceful ``stalled`` stop (rather than a
deadlock error) once no scheduled heal can revive progress, so
unreachable destinations report a delivered fraction instead of
aborting the run.  Both step functions apply identical gating and
remain bit-identical under faults.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.exceptions import SimulationError
from repro.faults.manager import FaultManager
from repro.metrics.stats import LatencyStats
from repro.metrics.utilization import ChannelUtilization
from repro.router.flit import Flit, Packet
from repro.router.router import BlockingStats, Router
from repro.routing.registry import create_routing
from repro.sim.config import SimulationConfig
# Defined in the leaf module so the cache can read it without loading
# the engine; re-exported here, where callers look.
from repro.sim.constants import ENGINE_VERSION  # noqa: F401
from repro.sim.endpoints import Sink, Source
from repro.sim.results import SimulationResult
from repro.sim.rng import RngStreams
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.hub import TelemetryHub
from repro.topology.ports import OPPOSITE, Direction
from repro.traffic.factory import create_traffic
from repro.traffic.patterns import TrafficGenerator

if TYPE_CHECKING:
    from repro.validate.config import ValidationConfig

#: Cycles without any flit movement (while flits are in flight) after which
#: the engine declares a deadlock.
DEADLOCK_WINDOW = 5000

#: Recognized values for ``Simulator(engine_mode=...)``: the engine and
#: its reference loop, bit-identical on every config.
ENGINE_MODES = ("skip", "legacy")


class Simulator:
    """One simulated network plus its workload."""

    # Read by perf/child.py::_probe_engine_modes; ROADMAP item 0 drops it.
    stage_times = None

    def __init__(
        self,
        config: SimulationConfig,
        traffic: TrafficGenerator | None = None,
        *,
        engine_mode: str = "skip",
        validation: "ValidationConfig | None" = None,
    ) -> None:
        if engine_mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {engine_mode!r}")
        self.engine_mode = engine_mode
        self.config = config
        self.mesh = config.make_topology()
        self.rng = RngStreams(config.seed)
        self.routing = create_routing(config.routing)
        self.routers = [
            Router(
                node,
                self.mesh,
                config,
                self.routing,
                self.rng.stream(f"router/{node}"),
            )
            for node in range(self.mesh.num_nodes)
        ]
        # Nothing the simulator owns refers back to it strongly, so the
        # network is freed with its last outside reference instead of
        # waiting for the cycle collector: the sinks report deliveries
        # through a weak reference.
        this = weakref.ref(self)

        def on_packet(packet: Packet, cycle: int) -> None:
            this()._on_packet_ejected(packet, cycle)

        self.sinks = [
            Sink(
                node,
                config.num_vcs,
                config.vc_buffer_depth,
                config.ejection_rate,
                on_packet,
            )
            for node in range(self.mesh.num_nodes)
        ]
        self.sources = [
            Source(node, self.routers[node], config.num_vcs)
            for node in range(self.mesh.num_nodes)
        ]
        self.traffic = (
            traffic
            if traffic is not None
            else create_traffic(config, self.mesh, self.rng.stream("traffic"))
        )

        self.faults = (
            FaultManager(config.faults, self.mesh)
            if config.faults is not None and config.faults.events
            else None
        )
        #: Set by the watchdog when a fault-laden run can make no further
        #: progress (unreachable destinations) — :meth:`run` then stops
        #: gracefully instead of raising a deadlock error.
        self.stalled = False

        self.cycle = 0
        self._last_progress_cycle = 0
        self._flits_in_network = 0
        #: Flits enqueued at sources but not yet injected (aggregate of
        #: ``Source.pending_flits``); part of the quiescence check.
        self._source_backlog = 0
        #: Whether routers are sampling blocked packets (on for exactly
        #: the measurement window).
        self._sampling = False
        self._measure_start = config.warmup_cycles
        self._measure_end = config.warmup_cycles + config.measure_cycles

        # Per-router link-endpoint tables, indexed [node][direction]:
        # (neighbor node, input direction at the neighbor), or None at a
        # mesh edge / LOCAL.  Hoists mesh.neighbor()/OPPOSITE lookups out
        # of the per-flit link-traversal and credit-return hot paths.
        self._link_dest: list[list[tuple[int, Direction] | None]] = []
        for node in range(self.mesh.num_nodes):
            row: list[tuple[int, Direction] | None] = [None] * 5
            for direction in (
                Direction.EAST,
                Direction.WEST,
                Direction.NORTH,
                Direction.SOUTH,
            ):
                neighbor = self.mesh.neighbor(node, direction)
                if neighbor is not None:
                    row[direction] = (neighbor, OPPOSITE[direction])
            self._link_dest.append(row)

        # Link pipelines: (node, direction, vc, flit) and (node, dir, vc)
        # to apply at the start of the next cycle.
        self._flits_next: list[tuple[int, Direction, int, Flit]] = []
        self._credits_next: list[tuple[int, Direction, int]] = []
        self._sink_next: list[tuple[int, int, Flit]] = []

        # Telemetry.  The hub exists when anything wants per-run
        # observation: an active TelemetryConfig, or track_utilization
        # alone, which builds a hub with an inactive config that only
        # counts link traversals.  Router probes attach only for an
        # active config; a utilization-only run's routers have none.
        tcfg = config.telemetry
        active_telemetry = tcfg is not None and tcfg.active
        if tcfg is None and config.track_utilization:
            tcfg = TelemetryConfig(sample_every=0)
        self.telemetry: TelemetryHub | None = (
            TelemetryHub(tcfg, self.mesh)
            if active_telemetry or config.track_utilization
            else None
        )
        if self.telemetry is not None and active_telemetry:
            for router in self.routers:
                router.probe = self.telemetry

        # Validation: same null-object shape as telemetry.  Imported
        # lazily so a run without validation never loads the checkers;
        # validation is an engine argument, not config state, so it
        # cannot change cache keys or serialized configs.
        self.validator = None
        if validation is not None and validation.active:
            from repro.validate.checker import InvariantChecker

            self.validator = InvariantChecker(validation)
            if validation.vc_states:
                # In-round grant verification belongs to ``vc_states``.
                for router in self.routers:
                    router.validator = self.validator

        # Statistics.
        self.latency = LatencyStats()
        self.latency_by_flow: dict[str, LatencyStats] = {}
        self.measured_created = 0
        self.measured_ejected = 0
        self.window_accepted_flits = 0
        self.window_offered_flits = 0

    # ------------------------------------------------------------------
    # Measurement window helpers
    # ------------------------------------------------------------------
    def _in_window(self, cycle: int) -> bool:
        return self._measure_start <= cycle < self._measure_end

    @property
    def utilization(self) -> ChannelUtilization | None:
        """Per-channel flit counters (owned by the telemetry hub)."""
        tel = self.telemetry
        return tel.utilization if tel is not None else None

    def _on_packet_ejected(self, packet: Packet, cycle: int) -> None:
        tel = self.telemetry
        if tel is not None:
            tel.packet_ejected(cycle, packet)
        if self._in_window(cycle):
            self.window_accepted_flits += packet.size
        if packet.measured:
            self.measured_ejected += 1
            self.latency.add(packet.latency)
            flow_stats = self.latency_by_flow.get(packet.flow)
            if flow_stats is None:
                flow_stats = self.latency_by_flow[packet.flow] = LatencyStats()
            flow_stats.add(packet.latency)

    # ------------------------------------------------------------------
    # One simulated cycle
    # ------------------------------------------------------------------
    @property
    def _step_impl(self):
        """Who steps a cycle.  Bound on read: stored, a step function
        would be the simulator referring to itself."""
        if self.engine_mode == "legacy":
            return self._step_legacy
        return self._step_fast

    def step(self) -> None:
        self._step_impl()

    def _begin_cycle(self, cycle: int) -> bool:
        """Stages 0-2, shared by both step functions.

        Returns whether a sink drained a flit (progress, for the
        watchdog).
        """
        routers = self.routers

        # 0. Apply due fault transitions.  Happens before the pipeline
        # swap so credits released by a heal are delivered this cycle —
        # the first cycle their wire is live again.
        fm = self.faults
        router_dead = None
        if fm is not None:
            if fm.pending_at(cycle):
                changed, released = fm.advance_to(cycle)
                for node in changed:
                    routers[node].set_fault_mask(fm.blocked_out[node])
                if released:
                    self._credits_next.extend(released)
            router_dead = fm.router_dead

        # 1. Arrivals from the previous cycle's link traversals.  Flits
        # always deliver (a dead router buffers them frozen); credits
        # into a dead router or across a severed link are held.
        flits_now, self._flits_next = self._flits_next, []
        credits_now, self._credits_next = self._credits_next, []
        sink_now, self._sink_next = self._sink_next, []
        if fm is None:
            for node, direction, vc in credits_now:
                routers[node].receive_credit(direction, vc)
        else:
            for node, direction, vc in credits_now:
                if fm.credit_blocked(node, direction):
                    fm.hold_credit(node, direction, vc)
                else:
                    routers[node].receive_credit(direction, vc)
        for node, direction, vc, flit in flits_now:
            routers[node].receive_flit(direction, vc, flit)
        for node, vc, flit in sink_now:
            self.sinks[node].receive(vc, flit)

        # 2. Sink drain (ejection bandwidth), returning credits upstream.
        progressed = False
        credits_next = self._credits_next
        for sink in self.sinks:
            if sink.occupancy == 0:
                continue
            if router_dead is not None and router_dead[sink.node]:
                continue
            for vc in sink.drain(cycle):
                credits_next.append((sink.node, Direction.LOCAL, vc))
                progressed = True
                self._flits_in_network -= 1
        return progressed

    def _end_cycle(self, cycle: int, progressed: bool) -> None:
        """Stage 6 and the cycle epilogue, shared by both step functions."""
        fm = self.faults
        router_dead = fm.router_dead if fm is not None else None
        tel = self.telemetry
        val = self.validator

        # 6. Traffic generation and injection.  Packets generated at a
        # dead endpoint are dropped (still counted as offered/created so
        # delivered_fraction sees them); dead sources do not inject.
        in_window = self._in_window(cycle)
        for packet in self.traffic.generate(cycle, in_window):
            if packet.measured:
                self.measured_created += 1
            if in_window:
                self.window_offered_flits += packet.size
            if tel is not None:
                tel.packet_created(cycle, packet)
            if router_dead is not None and router_dead[packet.src]:
                if val is not None:
                    val.packet_generated(packet, True)
                continue
            if val is not None:
                val.packet_generated(packet, False)
            self.sources[packet.src].enqueue(packet)
            self._source_backlog += packet.size
        for source in self.sources:
            if not source.pending_flits:
                continue
            if router_dead is not None and router_dead[source.node]:
                continue
            flit = source.inject(cycle)
            if flit is not None:
                self._flits_in_network += 1
                self._source_backlog -= 1
                progressed = True
                if tel is not None:
                    tel.inject(cycle, source.node, flit)

        self._watchdog(progressed, cycle)
        if tel is not None:
            tel.end_cycle(self, cycle)
        if val is not None:
            val.run_checks(self, cycle)
        self.cycle = cycle + 1

    def _step_fast(self) -> None:
        """One cycle, visiting only routers that can make progress."""
        cycle = self.cycle
        progressed = self._begin_cycle(cycle)
        fm = self.faults
        router_dead = fm.router_dead if fm is not None else None
        link_dest = self._link_dest
        credits_next = self._credits_next
        flits_next = self._flits_next
        sink_next = self._sink_next

        # Active set for this cycle.  All state changes that can wake a
        # router happen in stage 1 (arrivals/credits) or last cycle's
        # stages (buffered flits), so the set is complete once arrivals
        # are delivered; node order is preserved so results are
        # bit-identical to the legacy every-router loop.
        active = [r for r in self.routers if r.inflight or r.credit_pending]

        # 3. Link traversal.  Dead routers launch nothing; live routers
        # skip blocked output links (the flit stays staged).
        tel = self.telemetry
        local = Direction.LOCAL
        blocked_out = fm.blocked_out if fm is not None else None
        for router in active:
            if not router.staged_flits:
                continue
            if router_dead is not None and router_dead[router.node]:
                continue
            row = link_dest[router.node]
            blocked = blocked_out[router.node] if blocked_out is not None else 0
            for direction, vc, flit in router.link_traversal(blocked):
                progressed = True
                if tel is not None:
                    tel.link(router.node, direction, vc, flit)
                if direction is local:
                    sink_next.append((router.node, vc, flit))
                else:
                    neighbor, in_dir = row[direction]
                    flits_next.append((neighbor, in_dir, vc, flit))

        # 4. Route computation + VC allocation.  Runs for credit-pending
        # routers even when empty: a returned credit may have released an
        # output VC, and the freshly-released set must be consumed and
        # cleared by exactly one allocation round.  For an empty router
        # that round reduces to clearing the fresh sets.  Dead routers
        # are frozen entirely; their state thaws unchanged at heal time.
        for router in active:
            if router_dead is not None and router_dead[router.node]:
                continue
            if router.inflight:
                router.route_and_allocate()
            else:
                router.clear_fresh_only()
            router.credit_pending = False

        # 5. Switch allocation/traversal; upstream credit returns.
        for router in active:
            if not router.inflight:
                continue
            if router_dead is not None and router_dead[router.node]:
                continue
            row = link_dest[router.node]
            for in_direction, vc in router.switch_traversal():
                progressed = True
                if in_direction is local:
                    # Injection buffers are filled directly by the source,
                    # which observes free space without a credit loop.
                    continue
                upstream, up_dir = row[in_direction]
                credits_next.append((upstream, up_dir, vc))

        self._end_cycle(cycle, progressed)

    def _step_legacy(self) -> None:
        """One cycle visiting every router — the reference loop.

        Stages 3-5 are stated independently of :meth:`_step_fast` on
        purpose: no active set, no ``staged_flits``/``inflight``
        shortcuts, and link endpoints asked of the topology per flit
        rather than read from the precomputed table.  Results are
        bit-identical to :meth:`_step_fast`; that is what the oracle
        exists to check.
        """
        cycle = self.cycle
        progressed = self._begin_cycle(cycle)
        fm = self.faults
        router_dead = fm.router_dead if fm is not None else None

        # 3. Link traversal.
        tel = self.telemetry
        for router in self.routers:
            if router_dead is not None and router_dead[router.node]:
                continue
            blocked = fm.blocked_out[router.node] if fm is not None else 0
            for direction, vc, flit in router.link_traversal(blocked):
                progressed = True
                if tel is not None:
                    tel.link(router.node, direction, vc, flit)
                if direction is Direction.LOCAL:
                    self._sink_next.append((router.node, vc, flit))
                else:
                    neighbor = self.mesh.neighbor(router.node, direction)
                    assert neighbor is not None
                    self._flits_next.append(
                        (neighbor, OPPOSITE[direction], vc, flit)
                    )

        # 4. Route computation + VC allocation.
        for router in self.routers:
            if router_dead is not None and router_dead[router.node]:
                continue
            router.route_and_allocate()
            router.credit_pending = False

        # 5. Switch allocation/traversal; upstream credit returns.
        for router in self.routers:
            if router_dead is not None and router_dead[router.node]:
                continue
            for in_direction, vc in router.switch_traversal():
                progressed = True
                if in_direction is Direction.LOCAL:
                    # Injection buffers are filled directly by the source,
                    # which observes free space without a credit loop.
                    continue
                upstream = self.mesh.neighbor(router.node, in_direction)
                assert upstream is not None
                self._credits_next.append(
                    (upstream, OPPOSITE[in_direction], vc)
                )

        self._end_cycle(cycle, progressed)

    def _watchdog(self, progressed: bool, cycle: int) -> None:
        if progressed:
            self._last_progress_cycle = cycle
        elif (
            self._flits_in_network > 0
            and cycle - self._last_progress_cycle > DEADLOCK_WINDOW
        ):
            fm = self.faults
            if fm is not None:
                # Under faults a stall usually means unreachable
                # destinations, not a protocol deadlock.  A scheduled
                # heal may still revive progress; otherwise stop
                # gracefully and report the delivered fraction.
                if not fm.has_pending_transitions():
                    self.stalled = True
                return
            raise SimulationError(
                f"no flit movement for {DEADLOCK_WINDOW} cycles at cycle "
                f"{cycle} with {self._flits_in_network} flits in flight — "
                f"routing deadlock with '{self.config.routing}'"
            )

    # ------------------------------------------------------------------
    # Idle-cycle skipping
    # ------------------------------------------------------------------
    def _skip_idle_cycles(self, limit: int) -> int:
        """Advance the clock over provably-empty cycles; return the count.

        Only engages when the network is fully quiescent: no flit
        buffered in any router, link pipeline, or sink, no source
        backlog, and no credit return in flight.  (``credit_pending``
        flags and output-port drain state are always resolved within the
        cycle that set them, so between steps the three pipeline lists
        plus the two counters cover every bit of live state.)  The jump
        is clamped to the next phase boundary — warm-up end, measurement
        end, or the cycle limit — so :meth:`run`'s phase transitions
        still fire on the exact cycle they would when stepping.
        """
        if (
            self._flits_in_network
            or self._source_backlog
            or self._flits_next
            or self._credits_next
            or self._sink_next
        ):
            return 0
        cycle = self.cycle
        if cycle < self._measure_start:
            boundary = self._measure_start
        elif cycle < self._measure_end:
            boundary = self._measure_end
        else:
            boundary = limit
        if boundary > limit:
            boundary = limit
        event = self.traffic.next_event_cycle(cycle, boundary)
        target = boundary if event is None else min(event, boundary)
        fm = self.faults
        if fm is not None:
            # Never jump over a fault activation/heal: the transition
            # must be applied (and any held credits released) on its
            # exact cycle to stay bit-identical with the other modes.
            transition = fm.next_transition_cycle()
            if transition is not None and transition < target:
                target = transition
        skipped = target - cycle
        if skipped <= 0:
            return 0
        if self.telemetry is not None:
            # Counts the skipped cycles toward utilization denominators
            # and synthesizes the (provably quiescent) samples that fall
            # inside the jump, keeping series identical across modes.
            self.telemetry.on_skip(self, cycle, target)
        if self.validator is not None:
            # Double-checks the quiescence the counters above promised.
            self.validator.on_skip(self, cycle, target)
        self.cycle = target
        return skipped

    # ------------------------------------------------------------------
    def _set_sampling(self, enabled: bool) -> None:
        """Blocked-packet sampling is on for exactly the measurement window."""
        self._sampling = enabled
        for router in self.routers:
            router.enable_blocking_sampling(enabled)

    def run(self) -> SimulationResult:
        """Run warm-up, measurement, and drain; return the result."""
        limit = self.config.max_cycles
        measure_start = self._measure_start
        measure_end = self._measure_end
        # The oracle steps every cycle; the engine skips idle ones.
        skip_idle = self.engine_mode != "legacy"
        while self.cycle < limit:
            cycle = self.cycle
            # Phase transitions happen *before* the step so that cycle
            # ``measure_start`` itself is simulated with sampling on —
            # including when ``warmup_cycles == 0`` (enabling only after
            # step() used to miss the whole window in that case).
            if cycle >= measure_end:
                if self._sampling:
                    self._set_sampling(False)
                if self.measured_ejected == self.measured_created:
                    break
            elif cycle >= measure_start and not self._sampling:
                self._set_sampling(True)
            if skip_idle and self._skip_idle_cycles(limit):
                # Re-run the boundary checks at the new cycle.
                continue
            self.step()
            if self.stalled:
                break
        if self._sampling:
            self._set_sampling(False)
        return self._result()

    def _result(self) -> SimulationResult:
        if self.validator is not None:
            self.validator.run_checks(self, self.cycle)  # a final sweep
        blocking = BlockingStats()
        for router in self.routers:
            blocking.merge(router.blocking)
        tel = self.telemetry
        telemetry_result = None
        if tel is not None:
            tel.finish(self)
            telemetry_result = tel.result()
        return SimulationResult(
            config=self.config,
            cycles_run=self.cycle,
            latency=self.latency,
            latency_by_flow=self.latency_by_flow,
            accepted_flits=self.window_accepted_flits,
            offered_flits=self.window_offered_flits,
            measured_created=self.measured_created,
            measured_ejected=self.measured_ejected,
            blocking=blocking,
            telemetry=telemetry_result,
        )

    # ------------------------------------------------------------------
    # Introspection helpers (used by congestion-tree analysis and tests)
    # ------------------------------------------------------------------
    def total_buffered_flits(self) -> int:
        """Flits currently buffered anywhere in the network."""
        total = sum(r.occupancy() for r in self.routers)
        total += sum(s.occupancy for s in self.sinks)
        total += len(self._flits_next) + len(self._sink_next)
        return total
