"""Unit tests for injection sweeps and saturation search."""

import pytest

from repro.metrics import sweep as sweep_mod
from repro.metrics.sweep import (
    SweepPoint,
    injection_sweep,
    run_point,
    saturation_throughput,
)
from repro.sim.config import SimulationConfig


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
        p = SweepPoint(0.5, avg_latency=100, accepted_rate=0.4, drained=True)
        assert p.is_saturated(10.0)
        assert not p.is_saturated(50.0)

    def test_saturated_by_drain_failure(self):
        p = SweepPoint(0.5, avg_latency=12, accepted_rate=0.4, drained=False)
        assert p.is_saturated(10.0)

    def test_nan_latency_is_saturated(self):
        p = SweepPoint(
            0.5, avg_latency=float("nan"), accepted_rate=0.4, drained=True
        )
        assert p.is_saturated(10.0)

    def test_nan_zero_load_raises(self):
        # Regression: NaN zero-load used to make the latency comparison
        # silently False, classifying every drained point as stable.
        p = SweepPoint(0.5, avg_latency=100, accepted_rate=0.4, drained=True)
        with pytest.raises(ValueError, match="zero-load"):
            p.is_saturated(float("nan"))

    def test_nan_zero_load_raises_even_when_undrained(self):
        p = SweepPoint(0.5, avg_latency=12, accepted_rate=0.4, drained=False)
        with pytest.raises(ValueError, match="zero-load"):
            p.is_saturated(float("nan"))


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

    def test_saturation_search_on_simulator(self, monkeypatch):
        """Bisection against a synthetic latency model (fast, exact)."""

        def fake_run_point(config, rate):
            saturated = rate > 0.42
            return SweepPoint(
                injection_rate=rate,
                avg_latency=1000.0 if saturated else 10.0,
                accepted_rate=rate,
                drained=not saturated,
            )

        monkeypatch.setattr(sweep_mod, "run_point", fake_run_point)
        sat = saturation_throughput(
            SimulationConfig(width=4, num_vcs=2, routing="dor"),
            start=0.1,
            stop=0.9,
            coarse_step=0.2,
            refine_steps=4,
            zero_load=10.0,
        )
        assert 0.35 <= sat <= 0.42

    def test_saturation_search_never_saturates(self, monkeypatch):
        def fake_run_point(config, rate):
            return SweepPoint(rate, 10.0, rate, True)

        monkeypatch.setattr(sweep_mod, "run_point", fake_run_point)
        sat = saturation_throughput(
            SimulationConfig(width=4, num_vcs=2, routing="dor"),
            start=0.2,
            stop=0.6,
            coarse_step=0.2,
            zero_load=10.0,
        )
        assert sat == pytest.approx(0.6)
