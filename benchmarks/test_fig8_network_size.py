"""Fig. 8 — network-size scaling (4x4, 8x8, 16x16 meshes).

Compares DBAR's saturation throughput normalized to Footprint's across
mesh sizes.  Expected shape: the normalized value stays at or below ~1
(Footprint matches or beats DBAR), and Footprint's advantage does not
shrink as the mesh grows — the paper reports it widening, especially for
shuffle.
"""

from dataclasses import replace

from repro.harness.experiments import fig8_network_size
from repro.harness.reporting import report_fig8


def test_fig8_network_size(report, scale):
    # A 16x16 mesh simulates 4x the routers of the default; use a reduced
    # sweep to keep the figure within the bench budget.
    fig8_scale = replace(
        scale, rates=tuple(scale.rates[:3]), measure=max(150, scale.measure // 2)
    )
    results = fig8_network_size(
        fig8_scale,
        widths=(4, 8, 16),
        patterns=("uniform", "shuffle"),
        seed=1,
    )
    report(report_fig8(results))

    for entry in results:
        assert entry.footprint_saturation > 0
        # Footprint matches or beats DBAR at every size (tolerance one
        # sweep step at bench scale).
        assert entry.dbar_normalized <= 1.0 + 0.34
