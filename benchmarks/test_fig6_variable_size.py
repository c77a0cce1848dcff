"""Fig. 6 — latency-throughput with {1..6}-flit uniformly sized packets.

Same comparison as Fig. 5 with variable packet sizes.  Expected shape:
larger packets raise buffer utilization, closing the gap between
Duato-based algorithms (atomic VC reallocation) and the rest; DOR stays
best on uniform random with Footprint close; Footprint leads the adaptive
algorithms on transpose/shuffle; XORDET degrades the adaptive algorithms.
"""

from repro.harness.experiments import fig6_variable_packet_size
from repro.harness.reporting import report_fig6
from repro.metrics.sweep import saturation

ALGOS = ("dor", "dbar", "footprint", "dbar+xordet")


def test_fig6_variable_packet_size(report, scale):
    results = fig6_variable_packet_size(scale, algorithms=ALGOS, seed=1)
    report(report_fig6(results))

    for pattern, curves in results.items():
        zero_load = min(
            p.avg_latency for c in curves for p in c.points if p.drained
        )
        sat = {c.label: saturation(c.points, zero_load)[0] for c in curves}
        print(f"\nsaturation throughputs ({pattern}): {sat}")
        if pattern != "uniform":
            assert sat["footprint"] >= sat["dor"]
            # The static VC restriction costs DBAR throughput here
            # (tolerance: one sweep-grid step).
            assert sat["dbar"] >= sat["dbar+xordet"] - 0.16
