"""Unit tests for the single-simulation runner and Scale presets."""

from repro.harness.experiments import BENCH, PAPER, SMOKE, Scale
from repro.harness.runner import run_simulation
from repro.sim.config import SimulationConfig


def test_run_simulation_quiet():
    config = SimulationConfig(
        width=4,
        num_vcs=2,
        routing="dor",
        injection_rate=0.05,
        warmup_cycles=20,
        measure_cycles=40,
        drain_cycles=300,
    )
    result = run_simulation(config)
    assert result.drained


class TestScale:
    def test_presets_ordered_by_effort(self):
        assert SMOKE.measure < BENCH.measure < PAPER.measure
        assert SMOKE.width <= BENCH.width == PAPER.width
        assert len(SMOKE.rates) <= len(BENCH.rates) <= len(PAPER.rates)

    def test_config_builder_applies_scale(self):
        config = BENCH.config(routing="dbar", traffic="shuffle")
        assert config.width == BENCH.width
        assert config.num_vcs == BENCH.num_vcs
        assert config.warmup_cycles == BENCH.warmup
        assert config.routing == "dbar"

    def test_config_builder_overrides(self):
        config = SMOKE.config(num_vcs=8)
        assert config.num_vcs == 8
        assert config.width == SMOKE.width

    def test_custom_scale(self):
        scale = Scale(name="tiny", width=2, num_vcs=2, warmup=1,
                      measure=2, drain=3, rates=(0.1,))
        config = scale.config()
        assert config.num_nodes == 4
        assert config.max_cycles == 6
