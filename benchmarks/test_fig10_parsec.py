"""Fig. 10 — PARSEC-like traces: latency, blocking purity, HoL degree.

Runs pairs of synthetic PARSEC-like workloads (the Netrace stand-in
documented in DESIGN.md) simultaneously and compares DBAR and Footprint
on the paper's three measurements: (a) average latency difference, (b)
purity of blocking, (c) HoL-blocking degree (impurity x blocking count).
Expected shape: Footprint wins or ties latency per pair; Footprint's
purity is higher than DBAR's (it concentrates blocking onto footprint
VCs); the heavy, skewed fluidanimate pairs show the larger gains.
"""

from repro.harness.experiments import fig10_parsec
from repro.harness.reporting import report_fig10

PAIRS = (
    ("x264", "canneal"),
    ("fluidanimate", "bodytrack"),
    ("fluidanimate", "x264"),
    ("bodytrack", "canneal"),
)


def test_fig10_parsec(report, scale):
    entries = fig10_parsec(scale, pairs=PAIRS, seed=1)
    report(report_fig10(entries))

    # Footprint raises the purity of blocking on average (Fig. 10b).
    mean_dbar_purity = sum(e.dbar_purity for e in entries) / len(entries)
    mean_fp_purity = sum(e.footprint_purity for e in entries) / len(entries)
    assert mean_fp_purity >= mean_dbar_purity

    # Footprint wins or roughly ties latency on average (Fig. 10a: up to
    # 31% better, one pair 0.3% worse).
    mean_gain = sum(e.latency_improvement for e in entries) / len(entries)
    assert mean_gain > -0.05
