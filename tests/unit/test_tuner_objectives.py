"""Unit tests for tuner scenarios, rungs, and objective scoring."""

import math

import pytest

from repro.core.cost import CostModel
from repro.harness.cache import config_cache_key
from repro.metrics.stats import LatencyStats
from repro.router.router import BlockingStats
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult
from repro.tuner import TunerError, space
from repro.tuner.objectives import (
    FLIT_BITS,
    Scenario,
    config_cost_bits,
    eval_from_results,
    rung_config,
    rungs,
)


BASE = SimulationConfig(
    width=4,
    num_vcs=4,
    routing="footprint",
    injection_rate=0.02,
    warmup_cycles=40,
    measure_cycles=100,
    drain_cycles=200,
)


def _result(config, latencies, accepted, created=10, ejected=10):
    stats = LatencyStats()
    stats.extend(latencies)
    return SimulationResult(
        config=config,
        cycles_run=config.warmup_cycles + config.measure_cycles,
        latency=stats,
        latency_by_flow={},
        accepted_flits=accepted,
        offered_flits=accepted,
        measured_created=created,
        measured_ejected=ejected,
        blocking=BlockingStats(),
    )


# ----------------------------------------------------------------------
# Cost objective
# ----------------------------------------------------------------------
def test_cost_bits_buffers_only_for_oblivious_routing():
    config = BASE.with_(routing="dor", num_vcs=4, vc_buffer_depth=4)
    assert config_cost_bits(config) == 4 * 4 * FLIT_BITS


def test_cost_bits_adds_congestion_and_footprint_state():
    dor = config_cost_bits(BASE.with_(routing="dor"))
    dbar = config_cost_bits(BASE.with_(routing="dbar"))
    footprint = config_cost_bits(BASE.with_(routing="footprint"))
    model = CostModel(BASE.num_nodes, BASE.num_vcs)
    assert dbar == dor + model.idle_counter_bits
    assert footprint == dbar + model.owner_table_bits + model.state_bits


def test_cost_bits_scales_with_buffering():
    small = config_cost_bits(BASE.with_(num_vcs=2, vc_buffer_depth=2))
    big = config_cost_bits(BASE.with_(num_vcs=8, vc_buffer_depth=4))
    assert big > small


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
def test_scenario_validation():
    with pytest.raises(TunerError):
        Scenario(BASE, rates=())
    with pytest.raises(TunerError):
        Scenario(BASE, rates=(0.2, 0.1))
    with pytest.raises(TunerError):
        Scenario(BASE, rates=(0.1, 0.1))
    with pytest.raises(TunerError):
        Scenario(BASE, rates=(0.1, 0.2), latency_rate=0.15)


def test_scenario_latency_rate_defaults_to_middle():
    scenario = Scenario(BASE, rates=(0.1, 0.2, 0.3))
    assert scenario.latency_rate == 0.2


def test_scenario_ladder_and_name_follow_the_base():
    hotspot = Scenario(BASE.with_(traffic="hotspot"))
    assert hotspot.rates == (0.05, 0.15, 0.3, 0.45)
    assert hotspot.name == "hotspot-4x4"
    assert "hotspot_rate ladder" in hotspot.describe()
    uniform = Scenario(BASE.with_(topology="torus"))
    assert uniform.rates == (0.02, 0.1, 0.2, 0.35)
    assert uniform.name == "uniform-4x4-torus"
    assert "injection_rate ladder" in uniform.describe()


def test_scenario_roundtrip():
    scenario = Scenario(BASE.with_(traffic="transpose"), rates=(0.05, 0.1))
    again = Scenario.from_dict(scenario.to_dict())
    assert again == scenario


def test_scenario_name_and_rate_field_are_written_not_read():
    """Artifacts keep both keys for their readers; they follow from the
    base, so a load ignores what is stored."""
    scenario = Scenario(BASE.with_(traffic="hotspot"), rates=(0.05, 0.1))
    stored = scenario.to_dict()
    assert (stored["name"], stored["rate_field"]) == (
        "hotspot-4x4",
        "hotspot_rate",
    )
    stored.update(name="renamed", rate_field="injection_rate")
    assert Scenario.from_dict(stored) == scenario


# ----------------------------------------------------------------------
# Rungs
# ----------------------------------------------------------------------
def test_rungs_scale_cycles_with_floors():
    probe, half, full = rungs(BASE)
    assert (probe.warmup, probe.measure, probe.drain) == (10, 25, 50)
    assert (half.warmup, half.measure, half.drain) == (20, 50, 100)
    # The last rung is the base's own fidelity.
    assert (full.warmup, full.measure, full.drain) == (40, 100, 200)
    assert (full.width, full.height) == (BASE.width, BASE.height)
    # Floors hold for very short bases.
    tiny, _, _ = rungs(
        BASE.with_(warmup_cycles=8, measure_cycles=12, drain_cycles=20)
    )
    assert (tiny.warmup, tiny.measure, tiny.drain) == (10, 20, 50)


def test_probe_halves_a_wide_mesh_under_a_distinct_cache_key():
    big = SimulationConfig(
        width=8,
        num_vcs=4,
        routing="dor",
        injection_rate=0.05,
        warmup_cycles=40,
        measure_cycles=100,
        drain_cycles=200,
    )
    candidate = space.candidate(num_vcs=4, routing="dor")
    probe, half, full = rungs(big)
    assert (probe.width, half.width, full.width) == (4, 8, 8)
    scaled = rung_config(big, candidate, probe)
    assert scaled.width == 4
    assert rung_config(big, candidate, full) == big
    assert config_cache_key(scaled) != config_cache_key(big)
    assert rungs(BASE)[0].width == BASE.width  # a 4x4 mesh stays whole


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def _scenario():
    return Scenario(BASE, rates=(0.05, 0.1, 0.2), latency_rate=0.1)


def _configs(scenario, rung):
    config = rung_config(scenario.base, space.candidate(), rung)
    return [config.at_load(rate) for rate in scenario.rates]


def test_rung_configs_cover_ladder_with_distinct_keys():
    scenario = _scenario()
    probe, _, full = rungs(BASE)
    full_keys = {config_cache_key(c) for c in _configs(scenario, full)}
    probe_keys = {config_cache_key(c) for c in _configs(scenario, probe)}
    assert len(full_keys) == len(probe_keys) == len(scenario.rates)
    assert not full_keys & probe_keys  # rung configs never collide


def test_eval_scores_objectives():
    scenario = _scenario()
    full = rungs(BASE)[-1]
    configs = _configs(scenario, full)
    window = BASE.measure_cycles * BASE.num_nodes
    results = [
        _result(configs[0], [10, 10], int(0.05 * window)),
        _result(configs[1], [12, 12], int(0.10 * window)),
        # Saturated: latency > 3x the zero-load reference, so its higher
        # accepted rate does not count.
        _result(configs[2], [50, 50], int(0.12 * window)),
    ]
    evaluation = eval_from_results(
        scenario, space.candidate(), full, results
    )
    assert evaluation.rung == "full"
    assert evaluation.avg_latency == 12.0
    # Best accepted rate over the stable (non-saturated) prefix.
    assert evaluation.saturation_throughput == pytest.approx(
        results[1].accepted_rate
    )
    assert evaluation.cost_bits == config_cost_bits(configs[1])


def test_eval_nan_reference_saturates_everything():
    scenario = _scenario()
    full = rungs(BASE)[-1]
    results = [
        _result(c, [], 0, created=5, ejected=0)
        for c in _configs(scenario, full)
    ]
    evaluation = eval_from_results(
        scenario, space.candidate(), full, results
    )
    assert math.isinf(evaluation.avg_latency)
    assert evaluation.saturation_throughput == 0.0


def test_eval_undrained_point_ends_the_stable_prefix():
    scenario = _scenario()
    full = rungs(BASE)[-1]
    configs = _configs(scenario, full)
    results = [
        _result(configs[0], [10], 5),
        _result(configs[1], [11], 8, created=10, ejected=9),  # undrained
        _result(configs[2], [12], 9),
    ]
    evaluation = eval_from_results(
        scenario, space.candidate(), full, results
    )
    # Stable prefix stops at the first saturated point: the drained,
    # low-latency third point is past it.
    assert evaluation.saturation_throughput == pytest.approx(
        results[0].accepted_rate
    )


def test_eval_result_count_mismatch_raises():
    with pytest.raises(TunerError):
        eval_from_results(
            _scenario(), space.candidate(), rungs(BASE)[-1], []
        )
