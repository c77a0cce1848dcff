"""Ablation — limiting the number of footprint VCs (paper §4.2.5).

The paper leaves a cap on footprint VCs per (port, destination) as future
work: a limit should isolate hotspot flows harder (protecting background
traffic when the network saturates) at some cost in hotspot throughput.
This ablation runs the Fig. 9 hotspot workload with no limit and with
caps of 1 and 2 footprint VCs.
"""

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator

LIMITS = (None, 2, 1)


def run_limit(scale, limit):
    config = SimulationConfig(
        width=scale.width,
        num_vcs=scale.num_vcs,
        routing="footprint",
        traffic="hotspot",
        hotspot_rate=0.6,
        background_rate=0.3,
        footprint_vc_limit=limit,
        warmup_cycles=scale.warmup,
        measure_cycles=scale.measure,
        drain_cycles=scale.drain,
        seed=1,
    )
    return Simulator(config).run()


def test_ablation_footprint_vc_limit(report, scale):
    results = {limit: run_limit(scale, limit) for limit in LIMITS}
    lines = ["Ablation — footprint VC limit (hotspot 0.6, background 0.3)"]
    for limit, result in results.items():
        lines.append(
            f"  limit={str(limit):>4s}  background latency = "
            f"{result.flow_latency('background'):8.2f}  "
            f"accepted = {result.accepted_rate:.4f}"
        )
    report("\n".join(lines))

    # Every configuration still delivers traffic; limits remain safe.
    for result in results.values():
        assert result.accepted_rate > 0
        assert result.flow_latency("background") > 0
