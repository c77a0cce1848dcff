"""Unit tests for SimulationResult accounting."""

import math

import pytest

from repro.metrics.stats import LatencyStats
from repro.router.router import BlockingStats
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult


def make_result(**overrides):
    latency = LatencyStats()
    latency.extend([10, 20, 30])
    by_flow = {"uniform": latency}
    defaults = dict(
        config=SimulationConfig(width=4, measure_cycles=100),
        cycles_run=400,
        latency=latency,
        latency_by_flow=by_flow,
        accepted_flits=320,
        offered_flits=330,
        measured_created=3,
        measured_ejected=3,
        blocking=BlockingStats(),
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


def test_accepted_rate():
    result = make_result()
    # 320 flits / (16 nodes * 100 cycles)
    assert result.accepted_rate == pytest.approx(0.2)


def test_offered_rate():
    assert make_result().offered_rate == pytest.approx(330 / 1600)


def test_drained():
    assert make_result().drained
    assert not make_result(measured_ejected=2).drained


def test_avg_latency():
    assert make_result().avg_latency == 20


def test_flow_latency():
    result = make_result()
    assert result.flow_latency("uniform") == 20
    assert math.isnan(result.flow_latency("missing"))


def test_summary_mentions_outcome():
    text = make_result().summary()
    assert "drained=yes" in text
    assert "footprint" in text
    undrained = make_result(measured_ejected=0).summary()
    assert "drained=NO" in undrained


def test_summary_handles_no_samples():
    result = make_result(latency=LatencyStats())
    assert "n/a" in result.summary()


def test_zero_measure_window_rates_are_nan():
    result = make_result(
        config=SimulationConfig(width=4, measure_cycles=0)
    )
    assert math.isnan(result.accepted_rate)
    assert math.isnan(result.offered_rate)


class TestSerializedSamples:
    def test_lists_are_written_packed(self):
        data = make_result().to_dict()
        assert isinstance(data["latency"], str)
        assert data["latency_by_flow"] == {"uniform": None}

    def test_null_flow_is_an_independent_copy(self):
        rebuilt = SimulationResult.from_dict(make_result().to_dict())
        flow = rebuilt.latency_by_flow["uniform"]
        assert flow is not rebuilt.latency
        flow.add(100)
        assert rebuilt.latency.samples() == [10, 20, 30]
        assert rebuilt.latency.mean == 20 and flow.mean == 40

    @pytest.mark.parametrize("bad", [7.5, True, "9", None])
    def test_non_integer_list_sample_is_a_type_error(self, bad):
        data = make_result().to_dict()
        data["latency"] = [10, bad, 30]
        with pytest.raises(TypeError, match="must be integers"):
            SimulationResult.from_dict(data)
        data["latency"] = [10, 20, 30]
        data["latency_by_flow"]["uniform"] = [bad]
        with pytest.raises(TypeError, match="must be integers"):
            SimulationResult.from_dict(data)

    def test_list_form_still_loads(self):
        data = make_result().to_dict()
        data["latency"] = [10, 20, 30]
        data["latency_by_flow"] = {"uniform": [10, 20, 30], "other": []}
        rebuilt = SimulationResult.from_dict(data)
        assert rebuilt.latency.samples() == [10, 20, 30]
        assert rebuilt.latency_by_flow["uniform"].samples() == [10, 20, 30]
        assert rebuilt.latency_by_flow["other"].count == 0

    def test_malformed_packed_list_is_a_value_error(self):
        data = make_result().to_dict()
        data["latency"] = "HAA=="
        with pytest.raises(ValueError):
            SimulationResult.from_dict(data)
