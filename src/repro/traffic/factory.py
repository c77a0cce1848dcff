"""Traffic-generator factory used by the simulation engine."""

from __future__ import annotations

import random

from repro.exceptions import TrafficError
from repro.sim.config import SimulationConfig
from repro.topology.base import Topology
from repro.traffic.hotspot import HotspotTraffic, default_hotspot_flows
from repro.traffic.patterns import PATTERNS, SyntheticTraffic, TrafficGenerator
from repro.traffic.trace import TraceTraffic


def create_traffic(
    config: SimulationConfig, mesh: Topology, rng: random.Random
) -> TrafficGenerator:
    """Instantiate the traffic generator named by ``config.traffic``."""
    name = config.traffic.strip().lower()
    if name in PATTERNS:
        return SyntheticTraffic(name, config, mesh, rng)
    if name == "hotspot":
        return HotspotTraffic(config, mesh, rng)
    if name == "trace":
        if config.trace is None:
            raise TrafficError("traffic 'trace' requires config.trace events")
        return TraceTraffic(list(config.trace), config, mesh, rng)
    raise TrafficError(
        f"unknown traffic '{config.traffic}'; "
        f"available: {sorted(PATTERNS) + ['hotspot', 'trace']}"
    )


def offered_flits_per_cycle(config: SimulationConfig) -> float:
    """Expected flits injected per cycle, network-wide, by the traffic
    ``config`` names: the fields that set the load differ by kind."""
    name = config.traffic.strip().lower()
    if name == "hotspot":
        flows = default_hotspot_flows(config.make_topology())
        participants = {node for flow in flows for node in flow}
        return len(flows) * config.hotspot_rate + (
            config.num_nodes - len(participants)
        ) * config.background_rate
    if name == "trace":
        events = config.trace or ()
        if not events:
            return 0.0
        cycles = [e.cycle for e in events]
        return sum(e.size for e in events) / (max(cycles) - min(cycles) + 1)
    return config.injection_rate * config.num_nodes
