"""Unit tests for latency-throughput curves and table rendering."""

from repro.metrics.curves import (
    LatencyThroughputCurve,
    render_curves,
    render_table,
)
from repro.metrics.sweep import SweepPoint, saturation


def point(rate, latency, drained=True):
    return SweepPoint(
        injection_rate=rate,
        avg_latency=latency,
        accepted_rate=rate,
        drained=drained,
        delivered_fraction=1.0,
        offered_rate=rate,
    )


def curve(label, points):
    c = LatencyThroughputCurve(label=label)
    for p in points:
        c.add(p)
    return c


class TestCurve:
    """A curve's points are what the saturation walk reads."""

    def test_stable_points(self):
        c = curve("x", [point(0.1, 10), point(0.3, 25), point(0.5, 500)])
        assert saturation(c.points, zero_load=10) == (0.3, 0.3)

    def test_undrained_is_saturated(self):
        c = curve("x", [point(0.1, 10), point(0.3, 12, drained=False)])
        assert saturation(c.points, 10) == (0.1, 0.1)

    def test_saturation_rate(self):
        c = curve("x", [point(0.1, 10), point(0.3, 20), point(0.5, 900)])
        assert saturation(c.points, zero_load=10)[0] == 0.3

    def test_saturation_rate_all_saturated(self):
        c = curve("x", [point(0.1, 999)])
        assert saturation(c.points, zero_load=10)[0] == 0.0


class TestRendering:
    def test_curves_table_contains_all_rates_and_labels(self):
        a = curve("alpha", [point(0.1, 10), point(0.2, 20)])
        b = curve("beta", [point(0.1, 11)])
        text = render_curves("demo", [a, b])
        assert "demo" in text
        assert "alpha" in text and "beta" in text
        assert "0.100" in text and "0.200" in text
        assert "20.0" in text

    def test_missing_point_rendered_as_dash(self):
        a = curve("alpha", [point(0.1, 10)])
        b = curve("beta", [point(0.2, 20)])
        text = render_curves("demo", [a, b])
        assert "-" in text

    def test_saturated_rendered_as_sat(self):
        a = curve("alpha", [point(0.4, 50, drained=False)])
        text = render_curves("demo", [a])
        assert "sat" in text

    def test_last_ulp_rate_shares_row(self):
        # Regression: computed rates differing from grid rates only in
        # the last ulp used to render as separate all-dash rows.
        grid_rate = 0.3
        refined_rate = 0.1 + 0.2  # 0.30000000000000004
        assert refined_rate != grid_rate
        a = curve("alpha", [point(grid_rate, 10)])
        b = curve("beta", [point(refined_rate, 12)])
        text = render_curves("demo", [a, b])
        rows = [ln for ln in text.splitlines() if ln.startswith(" ")]
        data_rows = [r for r in rows if "0.300" in r]
        assert len(data_rows) == 1
        assert "10.0" in data_rows[0] and "12.0" in data_rows[0]
        assert "-" not in data_rows[0]

    def test_render_table_alignment(self):
        text = render_table(
            "t", ["col1", "column2"], [["a", "b"], ["cc", "dd"]]
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        assert len({len(line) for line in lines[1:]}) == 1
