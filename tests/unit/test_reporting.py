"""Unit tests for the harness reporting renderers."""

from repro.core.congestion import CongestionTree
from repro.core.cost import CostModel
from repro.harness.experiments import Fig2Result, Fig8Result, Fig10Entry
from repro.harness.reporting import (
    report_cost,
    report_fig2,
    report_fig8,
    report_fig9,
    report_fig10,
    report_table1,
)
from repro.topology.ports import Direction


def test_report_fig2():
    tree = CongestionTree(destination=13)
    tree.branches[(12, Direction.EAST)] = {0, 1}
    result = Fig2Result(
        routing="dor", network_tree=CongestionTree(10), endpoint_tree=tree
    )
    text = report_fig2([result])
    assert "dor" in text
    assert "endpoint(n13)" in text
    assert "2" in text


def test_report_fig8():
    entry = Fig8Result(
        pattern="shuffle",
        width=8,
        dbar_saturation=0.40,
        footprint_saturation=0.50,
        dbar_peak=0.43,
        footprint_peak=0.52,
    )
    text = report_fig8([entry])
    assert "shuffle" in text
    assert "8x8" in text
    assert "0.800" in text  # 0.40 / 0.50
    assert "peak" in text and "0.430" in text and "0.520" in text


def test_fig8_normalization_handles_zero():
    import math

    entry = Fig8Result("u", 4, dbar_saturation=0.3, footprint_saturation=0.0,
                       dbar_peak=0.3, footprint_peak=0.1)
    assert math.isnan(entry.dbar_normalized)


def test_report_fig9_marks_undrained():
    results = {
        "dbar": [(0.3, 20.0, True), (0.6, 80.0, False)],
        "footprint": [(0.3, 18.0, True), (0.6, 40.0, True)],
    }
    text = report_fig9(results)
    assert "80.0*" in text
    assert "40.0" in text
    assert "0.30" in text


def test_report_fig10():
    entry = Fig10Entry(
        workloads=("fluidanimate", "bodytrack"),
        dbar_latency=40.0,
        footprint_latency=30.0,
        dbar_purity=0.10,
        footprint_purity=0.30,
        dbar_hol_degree=900.0,
        footprint_hol_degree=700.0,
    )
    assert entry.latency_improvement == 0.25
    text = report_fig10([entry])
    assert "fluidanimate+bodytrack" in text
    assert "+25.0%" in text
    assert "10.0%" in text and "30.0%" in text


def test_fig10_zero_latency_guard():
    entry = Fig10Entry(
        workloads=("a", "b"),
        dbar_latency=0.0,
        footprint_latency=0.0,
        dbar_purity=0.0,
        footprint_purity=0.0,
        dbar_hol_degree=0.0,
        footprint_hol_degree=0.0,
    )
    assert entry.latency_improvement == 0.0


def test_report_table1():
    text = report_table1({"dor": {"P_adapt": 0.9, "VC_adapt": 0.0}})
    assert "dor" in text
    assert "0.900" in text


def test_report_cost():
    text = report_cost([CostModel(64, 16)])
    assert "132" in text
    assert "96" in text
