"""Behavioural fault-injection tests with hand-crafted traces.

These pin the fault model's observable semantics: exact delivered
fractions, deterministic routing stuck on a dead path vs. adaptive
routing steering around it, transient faults delaying (not dropping)
delivery, and dead sources discarding generated packets while still
counting them as offered.
"""

import math

from repro.faults import FaultEvent, FaultSchedule
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.ports import Direction
from repro.traffic.trace import TraceEvent


def _run(routing, trace, faults, *, drain=400, mode="skip"):
    config = SimulationConfig(
        width=4,
        num_vcs=4,
        routing=routing,
        traffic="trace",
        trace=trace,
        injection_rate=0.0,
        warmup_cycles=0,
        measure_cycles=50,
        drain_cycles=drain,
        seed=1,
        faults=faults,
    )
    return Simulator(config, engine_mode=mode).run()


# Link 0→east is on DOR's (X-then-Y) path from node 0 to node 5.
_DEAD_FIRST_HOP = FaultSchedule((FaultEvent(0, "link", 0, Direction.EAST),))


def test_dor_cannot_route_around_dead_link():
    """DOR commits to the east port at node 0 and waits forever: the
    packet freezes, and the run ends undrained with nothing delivered."""
    result = _run("dor", [TraceEvent(1, 0, 5)], _DEAD_FIRST_HOP)
    assert not result.drained
    assert result.measured_created == 1
    assert result.measured_ejected == 0
    assert result.delivered_fraction == 0.0


def test_footprint_routes_around_dead_link():
    """The adaptive minimal set at node 0 for destination 5 is
    {east, north}; with east dead, footprint takes north and delivers."""
    result = _run("footprint", [TraceEvent(1, 0, 5)], _DEAD_FIRST_HOP)
    assert result.drained
    assert result.delivered_fraction == 1.0


def test_adaptive_beats_dor_on_partial_fault_exact_fractions():
    """Two measured packets; one crosses the dead link's DOR path, one
    does not.  DOR delivers exactly half, footprint everything."""
    trace = [TraceEvent(1, 0, 5), TraceEvent(2, 15, 10)]
    dor = _run("dor", trace, _DEAD_FIRST_HOP)
    assert dor.measured_created == 2
    assert dor.measured_ejected == 1
    assert dor.delivered_fraction == 0.5
    footprint = _run("footprint", trace, _DEAD_FIRST_HOP)
    assert footprint.delivered_fraction == 1.0


def test_transient_link_fault_delays_but_delivers():
    """A 200-cycle fault on the only DOR path holds the packet; on heal
    it proceeds.  Delivery is delayed past the heal cycle, not dropped."""
    faults = FaultSchedule(
        (FaultEvent(0, "link", 0, Direction.EAST, duration=200),)
    )
    result = _run("dor", [TraceEvent(1, 0, 5)], faults, drain=600)
    assert result.drained
    assert result.delivered_fraction == 1.0
    assert result.latency.mean > 200


def test_dead_source_discards_generation_but_counts_it():
    """Packets generated at a dead endpoint never enter the network but
    still count as created, so the delivered fraction sees the loss."""
    faults = FaultSchedule((FaultEvent(0, "router", 0),))
    trace = [TraceEvent(1, 0, 5), TraceEvent(2, 15, 10)]
    result = _run("footprint", trace, faults)
    assert result.measured_created == 2
    assert result.measured_ejected == 1
    assert result.delivered_fraction == 0.5


def test_delivered_fraction_nan_without_measured_traffic():
    faults = FaultSchedule((FaultEvent(0, "router", 0),))
    result = _run("footprint", [], faults)
    assert result.measured_created == 0
    assert math.isnan(result.delivered_fraction)


def test_fault_free_delivered_fraction_is_one():
    result = _run("footprint", [TraceEvent(1, 0, 5)], None)
    assert result.delivered_fraction == 1.0
