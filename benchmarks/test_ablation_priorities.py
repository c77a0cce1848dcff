"""Ablation — Footprint's VC-request prioritization and port selection.

Dissects the two mechanisms of Algorithm 1 against the DBAR baselines:

* ``dbar``       — coarse threshold port selection, oblivious VCs
                   (the paper's baseline);
* ``dbar-fine``  — exact-credit port selection, oblivious VCs (an upper
                   bound on footprint-free local greedy routing);
* ``footprint``  — footprint port tie-break + prioritized VC regimes.

Expected shape on the hotspot workload: footprint protects background
latency best; dbar-fine improves on dbar but cannot contain HoL blocking.
"""

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator

ALGOS = ("dbar", "dbar-fine", "footprint")


def run_algo(scale, routing):
    config = SimulationConfig(
        width=scale.width,
        num_vcs=scale.num_vcs,
        routing=routing,
        traffic="hotspot",
        hotspot_rate=0.55,
        background_rate=0.3,
        warmup_cycles=scale.warmup,
        measure_cycles=scale.measure,
        drain_cycles=scale.drain,
        seed=1,
    )
    return Simulator(config).run()


def test_ablation_priorities(report, scale):
    results = {a: run_algo(scale, a) for a in ALGOS}
    lines = ["Ablation — prioritization (hotspot 0.55, background 0.3)"]
    for algo, result in results.items():
        lines.append(
            f"  {algo:10s}  background latency = "
            f"{result.flow_latency('background'):8.2f}  "
            f"purity = {result.blocking.purity:.3f}"
        )
    report("\n".join(lines))

    fp = results["footprint"].flow_latency("background")
    dbar = results["dbar"].flow_latency("background")
    assert fp < dbar * 1.1  # footprint at least matches dbar
    # Footprint's blocking is purer: busy VCs share the blocked packet's
    # destination more often.
    assert (
        results["footprint"].blocking.purity
        >= results["dbar"].blocking.purity
    )
