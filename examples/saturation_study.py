#!/usr/bin/env python3
"""Saturation-throughput study across routing algorithms.

Sweeps the offered load under a non-uniform pattern and prints the
latency-throughput curve for each algorithm — the raw material of the
paper's Fig. 5 — followed by the measured saturation throughput (the
last load of the stable prefix, where "stable" means latency under 3x
the zero-load latency and a fully drained measurement window).

Run:  python examples/saturation_study.py [pattern]
"""

import sys

from repro import SimulationConfig
from repro.metrics.curves import LatencyThroughputCurve, render_curves
from repro.metrics.sweep import run_point, saturation


def main() -> None:
    pattern = sys.argv[1] if len(sys.argv) > 1 else "transpose"
    rates = [0.1, 0.2, 0.3, 0.4, 0.5]
    algorithms = ["dor", "oddeven", "dbar", "footprint"]

    curves = []
    for routing in algorithms:
        config = SimulationConfig(
            width=8,
            num_vcs=10,
            routing=routing,
            traffic=pattern,
            warmup_cycles=150,
            measure_cycles=300,
            drain_cycles=700,
            seed=21,
        )
        curve = LatencyThroughputCurve(label=routing)
        for rate in rates:
            curve.add(run_point(config, rate))
        curves.append(curve)

    print(render_curves(f"latency vs offered load — {pattern}", curves))
    print()
    zero_load = min(p.avg_latency for p in curves[0].points)
    for curve in curves:
        print(
            f"{curve.label:12s} saturation throughput ~ "
            f"{saturation(curve.points, zero_load)[0]:.3f} flits/node/cycle"
        )


if __name__ == "__main__":
    main()
