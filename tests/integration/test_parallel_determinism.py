"""Parallel execution must be bit-identical to serial execution.

These tests force the process pool (``jobs=4``) and compare against the
in-process serial path (``jobs=1``) at the level the harness consumes:
:class:`SweepPoint` lists and figure-driver outputs.  Equality here is
exact, not approximate — per-task determinism means the worker count can
never change a result.
"""

import pytest

from repro.harness import experiments as exp
from repro.metrics.sweep import injection_sweep
from repro.sim.config import SimulationConfig


@pytest.fixture
def config():
    return SimulationConfig(
        width=4,
        num_vcs=4,
        routing="footprint",
        warmup_cycles=50,
        measure_cycles=100,
        drain_cycles=300,
        seed=2,
    )


class TestSweepDeterminism:
    def test_injection_sweep_jobs4_equals_jobs1(self, config):
        rates = [0.05, 0.2, 0.4]
        serial = injection_sweep(config, rates, jobs=1)
        pooled = injection_sweep(config, rates, jobs=4)
        assert serial == pooled


class TestDriverDeterminism:
    def test_curves_jobs4_equals_jobs1(self):
        serial = exp.latency_throughput_curves(
            exp.SMOKE, ("dor", "footprint"), "uniform", jobs=1
        )
        pooled = exp.latency_throughput_curves(
            exp.SMOKE, ("dor", "footprint"), "uniform", jobs=4
        )
        assert [c.label for c in serial] == [c.label for c in pooled]
        assert [c.points for c in serial] == [c.points for c in pooled]

    def test_fig9_jobs4_equals_jobs1(self):
        assert exp.fig9_hotspot(exp.SMOKE, jobs=1) == exp.fig9_hotspot(
            exp.SMOKE, jobs=4
        )
