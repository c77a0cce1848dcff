"""Trace-driven traffic.

A trace is an ordered list of :class:`TraceEvent` records — the Netrace
interface boiled down to what the paper's network-only evaluation uses:
injection cycle, source, destination, and packet size.  They come from
``SimulationConfig.trace``, generated synthetically by
:mod:`repro.traffic.parsecgen`.

The injector replays events by cycle.  Events whose cycle has passed are
injected immediately (the trace clock never stalls the simulation clock,
matching Netrace's non-dependency replay mode used for network stress
tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.exceptions import TrafficError
from repro.router.flit import Packet
from repro.sim.config import SimulationConfig
from repro.topology.base import Topology
from repro.traffic.patterns import TrafficGenerator


@dataclass(frozen=True)
class TraceEvent:
    """One packet injection in a trace."""

    cycle: int
    src: int
    dst: int
    size: int = 1
    flow: str = "trace"

    def __post_init__(self) -> None:
        if self.cycle < 0 or self.size < 1:
            raise TrafficError(f"invalid trace event {self}")


class TraceTraffic(TrafficGenerator):
    """Replays a pre-sorted trace into the network."""

    def __init__(
        self,
        events: list[TraceEvent],
        config: SimulationConfig,
        mesh: Topology,
        rng: random.Random,
    ) -> None:
        self.config = config
        self.mesh = mesh
        for e in events:
            if not (0 <= e.src < mesh.num_nodes and 0 <= e.dst < mesh.num_nodes):
                raise TrafficError(f"trace event {e} outside {mesh}")
            if e.src == e.dst:
                raise TrafficError(f"self-addressed trace event {e}")
        self.events = sorted(events, key=lambda e: e.cycle)
        self._next = 0

    @property
    def remaining(self) -> int:
        return len(self.events) - self._next

    def generate(self, cycle: int, measured: bool) -> list[Packet]:
        packets: list[Packet] = []
        while self._next < len(self.events) and (
            self.events[self._next].cycle <= cycle
        ):
            e = self.events[self._next]
            self._next += 1
            packets.append(
                Packet(
                    src=e.src,
                    dst=e.dst,
                    size=e.size,
                    creation_time=cycle,
                    flow=e.flow,
                    measured=measured,
                )
            )
        return packets

    def next_event_cycle(self, now: int, horizon: int) -> int | None:
        # Traces consume no RNG, so the next event is just the next
        # not-yet-replayed record (late events inject immediately).
        if self._next >= len(self.events):
            return None
        return max(now, self.events[self._next].cycle)
