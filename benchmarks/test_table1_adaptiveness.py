"""Table 1 — two-level adaptiveness of each routing algorithm.

Regenerates the quantitative backing of the paper's qualitative table:
port adaptiveness (Eq. 1, averaged over all node pairs of an 8x8 mesh)
and VC adaptiveness (Eq. 2) per algorithm.  Expected shape: DOR lowest
port adaptiveness, Odd-Even in between, DBAR/Footprint fully adaptive;
only Duato-based algorithms score nonzero VC adaptiveness.
"""

from repro.harness.experiments import table1_adaptiveness
from repro.harness.reporting import report_table1


def test_table1_adaptiveness(report):
    table = table1_adaptiveness(width=8, num_vcs=10)
    report(report_table1(table))

    assert table["footprint"]["P_adapt"] == 1.0
    assert table["dbar"]["P_adapt"] == 1.0
    assert table["dor"]["P_adapt"] < table["oddeven"]["P_adapt"] < 1.0
    assert table["footprint"]["VC_adapt"] == 0.9
    assert table["dor"]["VC_adapt"] == 0.0
    assert table["dbar+xordet"]["VC_adapt"] == 0.0
