"""Integration tests for the experiment harness and CLI at SMOKE scale."""

import math

import pytest

from repro.harness import experiments as exp
from repro.harness import reporting
from repro.cli import main as cli_main


class TestFig2:
    def test_dor_endpoint_tree_is_thick(self):
        (result,) = exp.fig2_congestion_tree(("dor",))
        assert result.endpoint_tree.max_thickness >= 3
        assert result.endpoint_tree.num_branches >= 2

    def test_xordet_tree_is_thin(self):
        (result,) = exp.fig2_congestion_tree(("dor+xordet",))
        assert result.endpoint_tree.max_thickness == 1

    def test_footprint_thinner_than_dbar(self):
        dbar, fp = exp.fig2_congestion_tree(("dbar", "footprint"))
        assert (
            fp.endpoint_tree.mean_thickness
            <= dbar.endpoint_tree.mean_thickness
        )

    def test_report_renders(self):
        text = reporting.report_fig2(exp.fig2_congestion_tree(("dor",)))
        assert "dor" in text and "endpoint" in text


class TestCurveDrivers:
    def test_fig5_smoke(self):
        results = exp.fig5_latency_throughput(
            exp.SMOKE,
            patterns=("uniform",),
            algorithms=("dor", "footprint"),
        )
        curves = results["uniform"]
        assert len(curves) == 2
        assert all(len(c.points) == len(exp.SMOKE.rates) for c in curves)
        text = reporting.report_fig5(results, "smoke")
        assert "footprint" in text

    def test_fig7_smoke(self):
        results = exp.fig7_vc_sweep(exp.SMOKE, ("uniform",), vc_counts=(2,))
        assert set(results) == {"uniform"}
        assert set(results["uniform"]) == {2}
        assert len(results["uniform"][2]) == 2
        assert "uniform, 2 VCs" in reporting.report_fig7(results)

    def test_fig8_smoke(self):
        results = exp.fig8_network_size(
            exp.SMOKE, widths=(4,), patterns=("uniform",)
        )
        (entry,) = results
        assert entry.width == 4
        assert entry.footprint_saturation > 0
        assert not math.isnan(entry.dbar_normalized)
        assert "4x4" in reporting.report_fig8(results)


class TestFig9And10:
    def test_fig9_smoke(self):
        results = exp.fig9_hotspot(exp.SMOKE)
        assert set(results) == {"dbar", "footprint"}
        for series in results.values():
            assert len(series) == len(exp.SMOKE.hotspot_rates)
        assert "hotspot" in reporting.report_fig9(results).lower()

    def test_fig10_smoke(self):
        entries = exp.fig10_parsec(
            exp.SMOKE, pairs=(("bodytrack", "x264"),)
        )
        (entry,) = entries
        assert entry.workloads == ("bodytrack", "x264")
        assert entry.dbar_latency > 0
        assert 0.0 <= entry.dbar_purity <= 1.0
        assert "bodytrack+x264" in reporting.report_fig10(entries)


@pytest.mark.slow
class TestFullFigures:
    """Full-roster figure drivers at SMOKE scale — minutes, not seconds."""

    def test_fig5_full_roster(self):
        results = exp.fig5_latency_throughput(exp.SMOKE)
        assert set(results) == set(exp.FIG5_PATTERNS)
        for curves in results.values():
            assert [c.label for c in curves] == list(exp.FIG5_ALGORITHMS)
            assert all(len(c.points) == len(exp.SMOKE.rates) for c in curves)

    def test_fig6_full_roster(self):
        results = exp.fig6_variable_packet_size(
            exp.SMOKE, patterns=("uniform",)
        )
        for curves in results.values():
            assert [c.label for c in curves] == list(exp.FIG5_ALGORITHMS)

    def test_fig8_multiple_sizes(self):
        results = exp.fig8_network_size(
            exp.SMOKE, widths=(4, 8), patterns=("uniform", "transpose")
        )
        assert len(results) == 4
        assert all(e.footprint_saturation > 0 for e in results)

    def test_fig10_all_pairs(self):
        entries = exp.fig10_parsec(exp.SMOKE)
        assert len(entries) == 4
        assert all(e.dbar_latency > 0 for e in entries)


class TestRectangularScales:
    """Regression: a square mesh was once hardcoded in the drivers.

    ``fig10_parsec`` built ``Mesh2D(scale.width)`` and
    ``table1_adaptiveness`` built ``Mesh2D(width)``, so rectangular
    scales generated traces and adaptiveness tables for a network that
    did not match the simulated one.  Both must honour a 4x8 geometry.
    """

    def test_fig10_on_4x8(self):
        scale = exp.Scale(
            name="rect",
            width=4,
            height=8,
            num_vcs=4,
            warmup=60,
            measure=120,
            drain=400,
            trace_cycles=300,
        )
        assert scale.make_topology().height == 8
        entries = exp.fig10_parsec(scale, pairs=(("bodytrack", "x264"),))
        (entry,) = entries
        assert entry.dbar_latency > 0
        assert entry.footprint_latency > 0

    def test_table1_on_4x8(self):
        table = exp.table1_adaptiveness(width=4, height=8)
        assert table["footprint"]["P_adapt"] == 1.0
        assert table["dor"]["P_adapt"] < 1.0


class TestStaticTables:
    def test_table1(self):
        table = exp.table1_adaptiveness()
        assert table["footprint"]["P_adapt"] == 1.0
        assert "footprint" in reporting.report_table1(table)

    def test_cost_table(self):
        models = exp.cost_table()
        assert any(m.total_bits_per_port == 132 for m in models)
        assert "132" in reporting.report_cost(models)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out
        assert "hotspot" in out

    def test_run(self, capsys):
        code = cli_main(
            [
                "run",
                "--width", "4",
                "--vcs", "2",
                "--routing", "dor",
                "--injection-rate", "0.05",
                "--warmup", "30",
                "--measure", "60",
                "--drain", "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "drained       : yes" in out

    def test_experiment_table1(self, capsys):
        assert cli_main(["experiment", "table1"]) == 0
        assert "P_adapt" in capsys.readouterr().out

    def test_experiment_cost(self, capsys):
        assert cli_main(["experiment", "cost"]) == 0
        assert "132" in capsys.readouterr().out

    def test_experiment_fig9_smoke(self, capsys):
        assert cli_main(["experiment", "fig9", "--scale", "smoke"]) == 0
        assert "hotspot_rate" in capsys.readouterr().out
