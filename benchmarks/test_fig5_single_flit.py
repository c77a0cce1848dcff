"""Fig. 5 — latency-throughput, single-flit packets, all seven algorithms.

Regenerates the paper's main latency-throughput comparison on the 8x8
mesh with 10 VCs for uniform random, transpose, and shuffle traffic.
Expected shape: DOR best on uniform random (the pattern self-balances);
adaptive algorithms win on transpose/shuffle; Footprint is the best
adaptive algorithm; XORDET helps DOR little and hurts the adaptive
algorithms on the non-uniform patterns.
"""

from repro.harness.experiments import fig5_latency_throughput
from repro.harness.reporting import report_fig5
from repro.metrics.sweep import saturation


def test_fig5_single_flit(report, scale):
    results = fig5_latency_throughput(scale, seed=1)
    report(report_fig5(results))

    for pattern, curves in results.items():
        zero_load = min(
            p.avg_latency for c in curves for p in c.points if p.drained
        )
        sat = {c.label: saturation(c.points, zero_load)[0] for c in curves}
        print(f"\nsaturation throughputs ({pattern}): {sat}")

        # Shape assertions; tolerances cover one sweep-grid step at bench
        # scale, where saturation estimates are quantized to the grid.
        if pattern == "uniform":
            # DOR is competitive on uniform random (best or near-best).
            assert sat["dor"] >= sat["oddeven"] - 0.16
        else:
            # Non-uniform patterns: full adaptivity beats deterministic.
            assert sat["footprint"] >= sat["dor"]
            assert sat["dbar"] >= sat["dor"]
        # Footprint is the best (or tied-best) adaptive algorithm.
        assert sat["footprint"] >= sat["oddeven"] - 0.16
