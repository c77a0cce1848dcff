"""Fig. 2 — congestion-tree case study on a 4x4 mesh with 4 VCs.

Reproduces the motivating example: flows f1..f4 create network congestion
on link n1->n2 and endpoint congestion at n13.  Expected shape (per the
paper's Fig. 2): DOR's endpoint tree has 4 all-VC-thick branches (16 VCs);
fully-adaptive routing spreads congestion to more branches; XORDET keeps
the DOR shape but 1-VC-thin branches; Footprint approaches the ideal —
adaptive paths with branches thinner than fully-adaptive routing.
"""

from repro.harness.experiments import fig2_congestion_tree
from repro.harness.reporting import report_fig2


def test_fig2_congestion_tree(report):
    results = fig2_congestion_tree()
    report(report_fig2(results))

    by_name = {r.routing: r for r in results}
    dor = by_name["dor"].endpoint_tree
    dbar = by_name["dbar"].endpoint_tree
    xordet = by_name["dor+xordet"].endpoint_tree
    footprint = by_name["footprint"].endpoint_tree

    # DOR: thick deterministic tree (the paper counts 4 links x 4 VCs).
    assert dor.max_thickness >= 3
    assert dor.num_branches >= 3
    # XORDET: same deterministic path but one VC per branch.
    assert xordet.max_thickness == 1
    # Adaptive routing spreads over more branches than DOR.
    assert dbar.num_branches >= dor.num_branches
    # Footprint keeps branches thinner than oblivious fully-adaptive.
    assert footprint.mean_thickness <= dbar.mean_thickness
