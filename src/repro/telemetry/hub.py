"""The telemetry hub: probe sinks, time-series samplers, flit tracing.

The hub is the single object the engine and routers talk to.  Design
rules, in priority order:

1. **Zero overhead when disabled.**  A simulation without telemetry has
   ``Simulator.telemetry is None`` and every probe site reduces to one
   hoisted ``is not None`` check; no hub is ever constructed.
2. **Observation only.**  Probe and sampler code reads simulator state
   but never mutates it and never touches an RNG stream, so results are
   bit-identical with telemetry on or off (asserted by the engine-mode
   tests).
3. **Mode-independent series.**  The sampling schedule is an absolute
   cycle grid (every ``sample_every`` cycles).  When the ``skip`` engine
   mode jumps over provably-quiescent cycles, :meth:`on_skip`
   synthesizes the samples that fall inside the jump with their known
   quiescent values, so the collected series are identical across the
   ``skip``/``legacy`` engine modes.

Probe sites (who calls what):

====================  ===============================================
engine link stage     :meth:`link` — one call per flit per hop
engine generation     :meth:`packet_created`
engine injection      :meth:`inject` — head/body/tail entering the net
engine ejection       :meth:`packet_ejected` — tail consumed at sink
router VC allocation  :meth:`vc_alloc` — every granted output VC
router switch stage   :meth:`switch` — only when ``tracing``
engine cycle end      :meth:`end_cycle` — sampling + progress
engine idle skip      :meth:`on_skip`
====================  ===============================================
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from repro.metrics.utilization import ChannelUtilization
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.result import TelemetryResult
from repro.topology.base import Topology
from repro.topology.ports import NUM_PORTS
from repro.router.vcstate import VcState

if TYPE_CHECKING:
    from repro.router.flit import Flit, Packet
    from repro.sim.engine import Simulator


class TelemetryHub:
    """Collects everything one simulation's probes report.

    Also hosts the per-channel flit counters behind
    :class:`~repro.metrics.utilization.ChannelUtilization` — the
    pre-telemetry ``track_utilization`` feature is now just the link
    sampler of this hub, and a hub constructed from a config whose
    telemetry is inactive (``config.active`` false) degrades to exactly
    that: link counting with no sampling, tracing, or progress.
    """

    def __init__(self, config: TelemetryConfig, mesh: Topology) -> None:
        self.config = config
        self.mesh = mesh
        #: Current simulated cycle, maintained by :meth:`end_cycle` /
        #: :meth:`on_skip` so router-side probes need no cycle argument.
        self.cycle = 0
        #: Whether flit lifecycle events are recorded.  Routers read
        #: this once per switch-traversal round.
        self.tracing = bool(config.trace_flits)

        self.utilization = ChannelUtilization(mesh, cycles=0)
        # Direct alias of the utilization array: the link probe is the
        # hottest telemetry call site (one per flit per hop).
        self._counts = self.utilization._counts
        # Channel indices of inter-router links, for window statistics.
        self._channel_idx = [
            node * NUM_PORTS + direction
            for node, direction, _ in mesh.channels()
        ]
        self._prev_counts = [0] * len(self._counts)
        self._prev_sample_cycle = -1

        self._sample_every = config.sample_every
        self._next_sample = (
            config.sample_every - 1 if config.sample_every else -1
        )
        self._progress_every = config.progress_every
        self._next_progress = (
            config.progress_every - 1 if config.progress_every else -1
        )
        self._tree_nodes = config.tree_nodes

        self._events: list[tuple] = []
        self._limit = config.trace_limit if self.tracing else 0
        self._dropped = 0
        # Packet ids in events are run-local (0, 1, 2, ... in creation
        # order), not the process-global Packet.packet_id counter, so
        # identical runs produce byte-identical traces regardless of how
        # many simulations ran before them in the process.
        self._pid_map: dict[int, int] = {}
        self._vc_allocs = 0
        self._fp_hits = 0

        self._sample_cycles: list[int] = []
        self._series: dict[str, list[float]] = {}
        self._router_occupancy: list[list[int]] = []
        if self._sample_every:
            names = [
                "flits_in_network",
                "occupied_input_vcs",
                "busy_output_vcs",
                "credit_stalled_vcs",
                "hol_pending_vcs",
                "vc_allocs",
                "footprint_hits",
                "link_mean_util",
                "link_max_util",
            ]
            for node in self._tree_nodes:
                names += [
                    f"tree/{node}/branches",
                    f"tree/{node}/vcs",
                    f"tree/{node}/max_thickness",
                ]
            self._series = {name: [] for name in names}

    # ------------------------------------------------------------------
    # Hot probes (called from the engine/router inner loops)
    # ------------------------------------------------------------------
    def link(self, node: int, direction: int, vc: int, flit: "Flit") -> None:
        """A flit left ``node`` through output channel ``direction``."""
        self._counts[node * NUM_PORTS + direction] += 1
        if self.tracing:
            self._event(
                (
                    "lt",
                    self.cycle,
                    self._pid(flit.packet.packet_id),
                    flit.index,
                    node,
                    int(direction),
                    vc,
                )
            )

    def vc_alloc(
        self,
        node: int,
        direction: int,
        out_vc: int,
        head: "Flit",
        fp_hit: bool,
    ) -> None:
        """An output VC was granted to ``head``'s packet.

        ``fp_hit`` marks a *footprint hit*: the granted VC's previous
        owner was a packet to the same destination, i.e. the allocation
        reused a footprint VC instead of widening the tree.
        """
        self._vc_allocs += 1
        if fp_hit:
            self._fp_hits += 1
        if self.tracing:
            self._event(
                (
                    "va",
                    self.cycle,
                    self._pid(head.packet.packet_id),
                    node,
                    int(direction),
                    out_vc,
                    1 if fp_hit else 0,
                )
            )

    def switch(
        self,
        node: int,
        in_direction: int,
        flit: "Flit",
        out_direction: int,
        out_vc: int,
    ) -> None:
        """A flit crossed the switch (only called while ``tracing``)."""
        self._event(
            (
                "st",
                self.cycle,
                self._pid(flit.packet.packet_id),
                flit.index,
                node,
                int(in_direction),
                int(out_direction),
                out_vc,
            )
        )

    def packet_created(self, cycle: int, packet: "Packet") -> None:
        if not self.tracing:
            return
        self._event(
            (
                "gen",
                cycle,
                self._pid(packet.packet_id),
                packet.src,
                packet.dst,
                packet.size,
                packet.flow,
            )
        )

    def inject(self, cycle: int, node: int, flit: "Flit") -> None:
        if not self.tracing:
            return
        self._event(
            ("inject", cycle, self._pid(flit.packet.packet_id), flit.index, node)
        )

    def packet_ejected(self, cycle: int, packet: "Packet") -> None:
        if not self.tracing:
            return
        self._event(("ej", cycle, self._pid(packet.packet_id), packet.dst))

    def _pid(self, raw_id: int) -> int:
        """Run-local packet id for ``raw_id``, assigned on first sight."""
        pid = self._pid_map.get(raw_id)
        if pid is None:
            pid = len(self._pid_map)
            self._pid_map[raw_id] = pid
        return pid

    def _event(self, event: tuple) -> None:
        if len(self._events) < self._limit:
            self._events.append(event)
        else:
            self._dropped += 1

    # ------------------------------------------------------------------
    # Cycle bookkeeping (called once per simulated cycle / skip)
    # ------------------------------------------------------------------
    def end_cycle(self, sim: "Simulator", cycle: int) -> None:
        """Run due samplers at the end of cycle ``cycle``."""
        self.utilization.cycles += 1
        if cycle == self._next_sample:
            self._take_sample(sim, cycle)
            self._next_sample += self._sample_every
        if cycle == self._next_progress:
            self._print_progress(sim, cycle)
            self._next_progress += self._progress_every
        self.cycle = cycle + 1

    def on_skip(self, sim: "Simulator", from_cycle: int, target: int) -> None:
        """The engine jumped from ``from_cycle`` to ``target`` over
        provably-quiescent cycles; synthesize the samples in between.

        During such a jump nothing is buffered anywhere and no credit is
        in flight, so every skipped sample's values are known without
        stepping: occupancy, stalls, and congestion trees are zero and
        the cumulative counters are unchanged.  Emitting them here keeps
        the series bit-identical to the ``legacy`` mode, which
        steps (and samples) through the same cycles.
        """
        self.utilization.cycles += target - from_cycle
        if self._sample_every:
            while self._next_sample < target:
                self._take_quiescent_sample(self._next_sample)
                self._next_sample += self._sample_every
        if self._progress_every and self._next_progress < target:
            while self._next_progress < target:
                self._next_progress += self._progress_every
            self._print_progress(sim, target - 1)
        self.cycle = target

    def finish(self, sim: "Simulator") -> None:
        """End-of-run hook: capture the final state as a last sample."""
        last = sim.cycle - 1
        if last < 0:
            return
        if (
            self._sample_every
            and (not self._sample_cycles or self._sample_cycles[-1] < last)
        ):
            self._take_sample(sim, last)
        if self._progress_every:
            self._print_progress(sim, last, final=True)

    # ------------------------------------------------------------------
    # Samplers
    # ------------------------------------------------------------------
    def _take_sample(self, sim: "Simulator", cycle: int) -> None:
        series = self._series
        self._sample_cycles.append(cycle)
        series["flits_in_network"].append(float(sim._flits_in_network))
        self._router_occupancy.append([r.inflight for r in sim.routers])

        occupied = 0
        busy = 0
        credit_stalled = 0
        hol_pending = 0
        active = VcState.ACTIVE
        for router in sim.routers:
            hol_pending += len(router._pending)
            for mask in router._occupied_masks:
                occupied += mask.bit_count()
            for port in router.output_ports.values():
                busy += port.num_vcs - port.free.bit_count()
            for direction, vcs in router.input_vcs.items():
                mask = router._occupied_masks[direction]
                while mask:
                    low = mask & -mask
                    ivc = vcs[low.bit_length() - 1]
                    mask -= low
                    if (
                        ivc.state is active
                        and router.output_ports[ivc.out_direction].credits[
                            ivc.out_vc
                        ]
                        == 0
                    ):
                        credit_stalled += 1
        series["occupied_input_vcs"].append(float(occupied))
        series["busy_output_vcs"].append(float(busy))
        series["credit_stalled_vcs"].append(float(credit_stalled))
        series["hol_pending_vcs"].append(float(hol_pending))
        series["vc_allocs"].append(float(self._vc_allocs))
        series["footprint_hits"].append(float(self._fp_hits))
        self._link_window(cycle)

        if self._tree_nodes:
            # Imported lazily: core.congestion imports the engine, which
            # imports this module.
            from repro.core.congestion import extract_congestion_tree

            for node in self._tree_nodes:
                tree = extract_congestion_tree(sim, node, include_local=False)
                series[f"tree/{node}/branches"].append(
                    float(tree.num_branches)
                )
                series[f"tree/{node}/vcs"].append(float(tree.total_vcs))
                series[f"tree/{node}/max_thickness"].append(
                    float(tree.max_thickness)
                )

    def _take_quiescent_sample(self, cycle: int) -> None:
        """A sample during an idle skip: every live quantity is zero."""
        series = self._series
        self._sample_cycles.append(cycle)
        for name in (
            "flits_in_network",
            "occupied_input_vcs",
            "busy_output_vcs",
            "credit_stalled_vcs",
            "hol_pending_vcs",
        ):
            series[name].append(0.0)
        self._router_occupancy.append([0] * self.mesh.num_nodes)
        series["vc_allocs"].append(float(self._vc_allocs))
        series["footprint_hits"].append(float(self._fp_hits))
        self._link_window(cycle)
        for node in self._tree_nodes:
            series[f"tree/{node}/branches"].append(0.0)
            series[f"tree/{node}/vcs"].append(0.0)
            series[f"tree/{node}/max_thickness"].append(0.0)

    def _link_window(self, cycle: int) -> None:
        """Mean/max inter-router link utilization since the last sample."""
        elapsed = cycle - self._prev_sample_cycle
        counts = self._counts
        prev = self._prev_counts
        total = 0
        peak = 0
        for idx in self._channel_idx:
            delta = counts[idx] - prev[idx]
            total += delta
            if delta > peak:
                peak = delta
        self._series["link_mean_util"].append(
            total / (len(self._channel_idx) * elapsed) if elapsed else 0.0
        )
        self._series["link_max_util"].append(
            peak / elapsed if elapsed else 0.0
        )
        self._prev_counts = list(counts)
        self._prev_sample_cycle = cycle

    def _print_progress(
        self, sim: "Simulator", cycle: int, final: bool = False
    ) -> None:
        limit = sim.config.max_cycles
        tag = "done" if final else "progress"
        print(
            f"{tag}: cycle {cycle + 1}/{limit}  "
            f"delivered {sim.measured_ejected}/{sim.measured_created} "
            f"measured packets  in-flight {sim._flits_in_network} flits",
            file=sys.stderr,
        )

    # ------------------------------------------------------------------
    def result(self) -> TelemetryResult | None:
        """Package everything recorded; ``None`` for an inactive config
        (a hub constructed only to serve ``track_utilization``)."""
        if not self.config.active:
            return None
        counters = {
            "vc_allocs": self._vc_allocs,
            "footprint_hits": self._fp_hits,
            "events_recorded": len(self._events),
            "events_dropped": self._dropped,
            "link_flits": sum(self._counts),
        }
        return TelemetryResult(
            sample_every=self._sample_every,
            sample_cycles=self._sample_cycles,
            series=self._series,
            router_occupancy=self._router_occupancy,
            counters=counters,
            events=self._events,
        )
