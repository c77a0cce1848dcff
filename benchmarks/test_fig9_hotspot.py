"""Fig. 9 — hotspot traffic: background latency vs hotspot injection rate.

Background uniform-random traffic runs at a constant 0.3 while the eight
Table 3 hotspot flows sweep their injection rate.  Expected shape (the
paper's headline HoL result): DBAR's background latency collapses at a
much lower hotspot rate than Footprint's — the paper measures saturation
at ~0.39 vs ~0.56, over 40% more sustainable hotspot load.
"""

from repro.harness.experiments import fig9_hotspot
from repro.harness.reporting import report_fig9


def test_fig9_hotspot(report, scale):
    results = fig9_hotspot(scale, seed=1)
    report(report_fig9(results))

    dbar = dict((r, lat) for r, lat, _ in results["dbar"])
    footprint = dict((r, lat) for r, lat, _ in results["footprint"])

    # At the heaviest hotspot rates, Footprint's background latency stays
    # below DBAR's — HoL blocking from the congestion tree is contained.
    heavy = [r for r in dbar if r >= 0.45]
    assert heavy
    assert sum(footprint[r] for r in heavy) < sum(dbar[r] for r in heavy)

    # Background latency grows with hotspot pressure for both.
    rates = sorted(dbar)
    assert dbar[rates[-1]] > dbar[rates[0]]
    assert footprint[rates[-1]] > footprint[rates[0]]
