"""Fig. 7 — impact of the number of VCs (DBAR vs Footprint).

Sweeps the VC count per physical channel with the paper's values
{2, 4, 8, 16}.  Expected shape: more VCs raise throughput for both
algorithms; Footprint matches or beats DBAR at every VC count.
"""

from repro.harness.experiments import fig7_vc_sweep
from repro.harness.reporting import report_fig7
from repro.metrics.sweep import saturation


def test_fig7_vc_sweep(report, scale):
    results = fig7_vc_sweep(scale, ("uniform", "transpose"), seed=1)
    report(report_fig7(results))
    for pattern, sweep in results.items():
        saturations = {}
        for vcs, curves in sweep.items():
            zero_load = min(
                p.avg_latency for c in curves for p in c.points if p.drained
            )
            saturations[vcs] = {
                c.label.split("/")[0]: saturation(c.points, zero_load)[0]
                for c in curves
            }
        print(f"\nsaturation by VC count ({pattern}): {saturations}")

        vc_counts = sorted(saturations)
        # More VCs never hurt throughput materially (tolerance: one
        # sweep-grid step at bench scale).
        for algo in ("dbar", "footprint"):
            low = saturations[vc_counts[0]][algo]
            high = saturations[vc_counts[-1]][algo]
            assert high >= low - 0.16
        # Footprint >= DBAR at every VC count (bench-scale tolerance).
        for vcs in vc_counts:
            assert (
                saturations[vcs]["footprint"]
                >= saturations[vcs]["dbar"] - 0.16
            )
