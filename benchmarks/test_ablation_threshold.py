"""Ablation — Footprint's congestion threshold (Algorithm 1 Step 3).

The paper uses half the VCs per channel as the threshold separating the
uncongested regime (flat requests over all adaptive VCs) from the
prioritized regimes.  This ablation sweeps the threshold fraction to show
the chosen value is a reasonable operating point: a threshold of ~0.5
should match or beat the extremes (0 = regulation almost never engages;
1 = the algorithm prioritizes even at zero load).
"""

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator

FRACTIONS = (0.1, 0.5, 0.9)


def run_threshold(scale, fraction):
    config = SimulationConfig(
        width=scale.width,
        num_vcs=scale.num_vcs,
        routing="footprint",
        traffic="hotspot",
        hotspot_rate=0.5,
        background_rate=0.3,
        congestion_threshold=fraction,
        warmup_cycles=scale.warmup,
        measure_cycles=scale.measure,
        drain_cycles=scale.drain,
        seed=1,
    )
    return Simulator(config).run()


def test_ablation_congestion_threshold(report, scale):
    results = {f: run_threshold(scale, f) for f in FRACTIONS}
    lines = ["Ablation — congestion threshold (hotspot 0.5, background 0.3)"]
    for fraction, result in results.items():
        lines.append(
            f"  threshold={fraction:.1f}  background latency = "
            f"{result.flow_latency('background'):8.2f}  "
            f"purity = {result.blocking.purity:.3f}"
        )
    report("\n".join(lines))

    latency = {
        f: r.flow_latency("background") for f, r in results.items()
    }
    # The paper's V/2 choice is within 35% of the best sampled setting.
    best = min(latency.values())
    assert latency[0.5] <= best * 1.35
