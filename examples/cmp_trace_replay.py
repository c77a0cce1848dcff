#!/usr/bin/env python3
"""Replay CMP (PARSEC-like) traces and analyze blocking purity.

The paper's Fig. 10 drives the network with PARSEC 2.0 traces captured by
Netrace and correlates Footprint's latency gain with the *purity of
blocking* — the share of busy VCs that already carry traffic to the
blocked packet's destination.  This example:

1. generates two synthetic PARSEC-like traces (a heavy, hotspot-skewed
   ``fluidanimate`` and a light ``bodytrack``) with the package's Netrace
   stand-in;
2. merges and replays them simultaneously, as the paper does to stress
   the network;
3. reports latency, purity of blocking, and the HoL-blocking degree for
   DBAR and Footprint.

Run:  python examples/cmp_trace_replay.py
"""

from repro import Mesh2D, SimulationConfig, Simulator
from repro.traffic.parsecgen import generate_parsec_trace, merge_traces


def main() -> None:
    mesh = Mesh2D(8)
    cycles = 1200
    trace = merge_traces(
        generate_parsec_trace("fluidanimate", mesh, cycles, seed=5),
        generate_parsec_trace("bodytrack", mesh, cycles, seed=6),
    )
    print(f"generated {len(trace)} trace packets over {cycles} cycles\n")

    for routing in ("dbar", "footprint"):
        config = SimulationConfig(
            width=8,
            num_vcs=10,
            routing=routing,
            traffic="trace",
            trace=trace,
            warmup_cycles=cycles // 10,
            measure_cycles=cycles,
            drain_cycles=2000,
            seed=5,
        )
        result = Simulator(config).run()
        print(f"--- {routing} ---")
        print(f"  avg packet latency : {result.avg_latency:.2f} cycles")
        print(f"  purity of blocking : {100 * result.blocking.purity:.1f}%")
        print(f"  HoL degree         : {result.blocking.hol_degree:.0f}")
        print(f"  blocking events    : {result.blocking.blocking_events}")
        print()


if __name__ == "__main__":
    main()
