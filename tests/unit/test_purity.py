"""Purity of blocking and the HoL-blocking degree (paper §4.3), as a
finished run reports them on ``SimulationResult.blocking``."""

from repro.metrics.stats import LatencyStats
from repro.router.router import BlockingStats
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult


def make_result(events=10, busy=40, footprint=10, cycles=100):
    blocking = BlockingStats()
    blocking.blocking_events = events
    blocking.busy_vc_samples = busy
    blocking.footprint_vc_samples = footprint
    return SimulationResult(
        config=SimulationConfig(width=4),
        cycles_run=cycles,
        latency=LatencyStats(),
        latency_by_flow={},
        accepted_flits=0,
        offered_flits=0,
        measured_created=0,
        measured_ejected=0,
        blocking=blocking,
    )


def test_purity():
    assert make_result().blocking.purity == 0.25


def test_hol_degree_is_impurity_times_events():
    # (1 - 0.25) * 10
    assert make_result().blocking.hol_degree == 7.5


def test_fully_pure_blocking_has_zero_hol():
    blocking = make_result(events=5, busy=20, footprint=20).blocking
    assert blocking.purity == 1.0
    assert blocking.hol_degree == 0.0
