"""Unit tests for injection sweeps and the saturation walk."""

from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import pytest

from repro.metrics.sweep import (
    DELIVERY_DEGRADATION_FACTOR,
    SATURATION_ACCEPTANCE_FACTOR,
    SweepPoint,
    injection_sweep,
    point_from_result,
    run_point,
    saturation,
)
from repro.sim.config import SimulationConfig

NAN = float("nan")


@pytest.fixture
def config():
    return SimulationConfig(
        width=4,
        num_vcs=2,
        routing="dor",
        traffic="uniform",
        warmup_cycles=30,
        measure_cycles=60,
        drain_cycles=400,
        seed=3,
    )


class TestSweepPoint:
    def test_saturated_by_latency(self):
        p = SweepPoint(0.5, 100, 0.4, drained=True, delivered_fraction=1.0,
                       offered_rate=0.4)
        assert p.is_saturated(10.0)
        assert not p.is_saturated(50.0)

    def test_saturated_by_drain_failure(self):
        p = SweepPoint(0.5, 12, 0.4, drained=False, delivered_fraction=1.0,
                       offered_rate=0.4)
        assert p.is_saturated(10.0)

    def test_saturated_by_throughput(self):
        # Drained and at zero-load latency, yet accepting under 95 % of
        # what was offered: the backlog grows, the point is saturated.
        p = SweepPoint(0.5, 12, 0.45, drained=True, delivered_fraction=1.0,
                       offered_rate=0.5)
        assert SATURATION_ACCEPTANCE_FACTOR == 0.95
        assert p.is_saturated(10.0)
        assert not replace(p, accepted_rate=0.475).is_saturated(10.0)

    def test_nan_latency_is_saturated(self):
        p = SweepPoint(0.5, NAN, 0.4, drained=True, delivered_fraction=1.0,
                       offered_rate=0.4)
        assert p.is_saturated(10.0)

    def test_nan_zero_load_raises(self):
        # Regression: NaN zero-load used to make the latency comparison
        # silently False, classifying every drained point as stable.
        p = SweepPoint(0.5, 100, 0.4, drained=True, delivered_fraction=1.0,
                       offered_rate=0.4)
        with pytest.raises(ValueError, match="zero-load"):
            p.is_saturated(NAN)

    def test_nan_zero_load_raises_even_when_undrained(self):
        p = SweepPoint(0.5, 12, 0.4, drained=False, delivered_fraction=1.0,
                       offered_rate=0.4)
        with pytest.raises(ValueError, match="zero-load"):
            p.is_saturated(NAN)


class TestRealSweeps:
    def test_run_point(self, config):
        p = run_point(config, 0.05)
        assert p.injection_rate == 0.05
        assert p.drained
        assert p.avg_latency > 0
        assert p.accepted_rate == pytest.approx(0.05, abs=0.03)

    def test_injection_sweep_latency_grows_with_load(self, config):
        # Low-load points are statistically noisy; compare far-apart loads
        # where queueing delay must dominate.
        points = injection_sweep(config, [0.05, 0.55])
        assert points[0].avg_latency < points[1].avg_latency

    def test_injection_sweep_on_hotspot_sweeps_the_hotspot_flows(self, config):
        """The serial and pooled paths sweep the same field: on hotspot
        traffic, the hotspot flows' rate over a constant background."""
        hotspot = config.with_(traffic="hotspot", background_rate=0.1)
        points = injection_sweep(hotspot, [0.02, 0.6])
        assert [p.injection_rate for p in points] == [0.02, 0.6]
        assert points[0].accepted_rate < points[1].accepted_rate
        assert run_point(hotspot, 0.6) == points[1]


def point(rate, latency, accepted=None, delivered=1.0, drained=True,
          offered=None):
    """A sweep point summarizing a stand-in result, as a sweep reads it
    (offering what it accepts unless ``offered`` says otherwise)."""
    accepted = rate if accepted is None else accepted
    result = SimpleNamespace(
        avg_latency=latency,
        accepted_rate=accepted,
        delivered_fraction=delivered,
        drained=drained,
        offered_rate=accepted if offered is None else offered,
    )
    return point_from_result(result, rate)


class TestSaturation:
    """The walk (a saturated first point and an undrained point are
    test_curves.py::TestCurve's)."""

    def test_empty_sweep(self):
        assert saturation([], 10.0) == (0.0, 0.0)

    def test_all_stable_reaches_the_last_rate(self):
        points = [point(0.1, 10), point(0.3, 20), point(0.5, 29)]
        assert saturation(points, 10.0) == (0.5, 0.5)

    def test_walk_stops_at_the_first_saturated_point(self):
        # 0.5 is stable again, but above the saturated 0.3: the prefix
        # ends at 0.1, so neither number reads it.
        points = [point(0.1, 10), point(0.3, 31), point(0.5, 12)]
        assert saturation(points, 10.0) == (0.1, 0.1)

    def test_peak_is_the_best_accepted_rate_of_the_prefix(self):
        points = [
            point(0.1, 10, accepted=0.1),
            point(0.3, 15, accepted=0.28),
            point(0.45, 25, accepted=0.26),
            point(0.55, 90, accepted=0.4),
        ]
        assert saturation(points, 10.0) == (0.45, 0.28)

    def test_walk_stops_where_acceptance_falls_short_of_the_offer(self):
        # Low latency and drained, but 0.45 accepts only 0.4 of the
        # 0.45 offered (< 95 %): the prefix ends at 0.3.
        points = [
            point(0.1, 10),
            point(0.3, 12, accepted=0.29, offered=0.3),
            point(0.45, 14, accepted=0.4, offered=0.45),
        ]
        assert saturation(points, 10.0) == (0.3, 0.29)

    @pytest.mark.parametrize(
        "rates", [(0.3, 0.1), (0.1, 0.1), (0.1, 0.5, 0.3)]
    )
    def test_rates_must_strictly_ascend(self, rates):
        with pytest.raises(ValueError, match="ascend"):
            saturation([point(rate, 10) for rate in rates], 10.0)

    def test_nan_zero_load_raises(self):
        with pytest.raises(ValueError, match="zero-load"):
            saturation([point(0.1, 10)], NAN)


class TestDegradedSaturation:
    """The fault sweep's walk: the lowest rate is the reference for both
    latency and delivery, and ``is_degraded`` classifies."""

    @staticmethod
    def rate(points):
        baseline = points[0]
        degraded = partial(
            SweepPoint.is_degraded,
            baseline_delivery=baseline.delivered_fraction,
        )
        return saturation(points, baseline.avg_latency, degraded)[0]

    def test_nan_first_point_gives_zero(self):
        points = [point(0.1, NAN, delivered=NAN), point(0.2, 10)]
        assert self.rate(points) == 0.0

    def test_delivery_below_the_factor_ends_the_prefix(self):
        low = 0.8 * DELIVERY_DEGRADATION_FACTOR
        points = [
            point(0.1, 10, delivered=0.8),
            point(0.2, 11, delivered=low - 0.01),
            point(0.3, 11, delivered=0.8),
        ]
        assert self.rate(points) == 0.1
        points[1] = point(0.2, 11, delivered=low + 0.01)
        assert self.rate(points) == 0.3

    def test_latency_above_three_times_zero_load_ends_the_prefix(self):
        points = [point(0.1, 10), point(0.2, 30.5), point(0.3, 12)]
        assert self.rate(points) == 0.1
        points[1] = point(0.2, 30)
        assert self.rate(points) == 0.3

    def test_undrained_point_that_delivers_is_not_degraded(self):
        points = [
            point(0.1, 10),
            point(0.2, 12, delivered=0.95, drained=False),
        ]
        assert self.rate(points) == 0.2
