"""Traffic-generator factory used by the simulation engine."""

from __future__ import annotations

import random

from repro.sim.config import SimulationConfig
from repro.topology.base import Topology
from repro.traffic.hotspot import HotspotTraffic, default_hotspot_flows
from repro.traffic.patterns import SyntheticTraffic, TrafficGenerator
from repro.traffic.trace import TraceTraffic


def create_traffic(
    config: SimulationConfig, mesh: Topology, rng: random.Random
) -> TrafficGenerator:
    """Instantiate the traffic generator named by ``config.traffic`` (a
    :data:`~repro.sim.config.TRAFFIC` key the config has checked: a
    pattern its grid runs, ``hotspot``, or ``trace`` with events)."""
    if config.traffic == "hotspot":
        return HotspotTraffic(config, mesh, rng)
    if config.traffic == "trace":
        return TraceTraffic(list(config.trace), config, mesh, rng)
    return SyntheticTraffic(config.traffic, config, mesh, rng)


def offered_flits_per_cycle(config: SimulationConfig) -> float:
    """Expected flits injected per cycle, network-wide, by the traffic
    ``config`` names: the fields that set the load differ by kind."""
    if config.traffic == "hotspot":
        flows = default_hotspot_flows(config.make_topology())
        participants = {node for flow in flows for node in flow}
        return len(flows) * config.hotspot_rate + (
            config.num_nodes - len(participants)
        ) * config.background_rate
    if config.traffic == "trace":
        events = config.trace
        if not events:
            return 0.0
        cycles = [e.cycle for e in events]
        return sum(e.size for e in events) / (max(cycles) - min(cycles) + 1)
    return config.injection_rate * config.num_nodes
