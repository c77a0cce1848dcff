"""Progress-watchdog behaviour: deadlock abort vs. graceful fault stall.

A routing deadlock (no flit movement while flits are in flight, no fault
active) must raise :class:`~repro.exceptions.SimulationError` — at the
same cycle in every engine mode.  The same no-progress signature under an
active fault schedule is *not* a protocol deadlock: the run stops
gracefully with ``Simulator.stalled`` set and reports the delivered
fraction instead.
"""

import math

import pytest

from repro.exceptions import SimulationError
from repro.faults import FaultEvent, FaultSchedule
from repro.routing import registry
from repro.routing.base import RoutingAlgorithm
from repro.sim import engine
from repro.sim.config import SimulationConfig
from repro.sim.engine import DEADLOCK_WINDOW, Simulator
from repro.topology.ports import Direction
from repro.traffic.trace import TraceEvent


class _StuckRouting(RoutingAlgorithm):
    """Commits to the DOR port but never requests a VC: instant deadlock."""

    name = "stuck"

    def select_output(self, ctx):
        if ctx.current == ctx.destination:
            return Direction.LOCAL
        return ctx.mesh.dor_direction(ctx.current, ctx.destination)

    def vc_requests_at(self, ctx, direction):
        return []

    def allowed_directions(self, mesh, current, destination, source):
        if current == destination:
            return [Direction.LOCAL]
        return [mesh.dor_direction(current, destination)]


@pytest.fixture
def stuck_routing(monkeypatch):
    monkeypatch.setitem(registry.ROUTING, "stuck", _StuckRouting)


def _deadlock_config(**overrides):
    base = dict(
        width=4,
        num_vcs=2,
        routing="stuck",
        traffic="trace",
        trace=[TraceEvent(1, 0, 5)],
        injection_rate=0.0,
        warmup_cycles=0,
        measure_cycles=50,
        drain_cycles=DEADLOCK_WINDOW + 1000,
        seed=1,
    )
    base.update(overrides)
    return SimulationConfig(**base)


@pytest.mark.parametrize("mode", ["legacy", "skip"])
def test_forced_deadlock_raises_in_every_mode(stuck_routing, mode):
    with pytest.raises(SimulationError) as excinfo:
        Simulator(_deadlock_config(), engine_mode=mode).run()
    assert "deadlock" in str(excinfo.value)
    assert "stuck" in str(excinfo.value)


def test_forced_deadlock_fires_identically_across_modes(stuck_routing):
    """The abort message embeds the firing cycle and in-flight count, so
    string equality pins the watchdog to the same cycle in all modes."""
    messages = set()
    for mode in ("legacy", "skip"):
        with pytest.raises(SimulationError) as excinfo:
            Simulator(_deadlock_config(), engine_mode=mode).run()
        messages.add(str(excinfo.value))
    assert len(messages) == 1


def test_shrunk_window_fires_identically_across_modes(monkeypatch):
    """The watchdog reads ``DEADLOCK_WINDOW`` when it fires.  With the
    window shrunk to 3 cycles, a flit waiting its turn at a one-in-ten
    ejection port is 'no movement with flits in flight', at the same
    cycle in both modes."""
    monkeypatch.setattr(engine, "DEADLOCK_WINDOW", 3)
    config = SimulationConfig(
        width=4,
        num_vcs=2,
        routing="dor",
        traffic="trace",
        trace=[TraceEvent(1, 0, 5), TraceEvent(1, 1, 5), TraceEvent(1, 4, 5)],
        injection_rate=0.0,
        ejection_rate=0.1,
        warmup_cycles=0,
        measure_cycles=50,
        drain_cycles=200,
        seed=1,
    )
    messages = set()
    for mode in ("legacy", "skip"):
        with pytest.raises(SimulationError) as excinfo:
            Simulator(config, engine_mode=mode).run()
        messages.add(str(excinfo.value))
    assert len(messages) == 1
    assert "for 3 cycles" in messages.pop()


@pytest.mark.parametrize("mode", ["legacy", "skip"])
def test_a_draining_sink_alone_is_progress(mode):
    """One 3-flit packet sits in a sink that ejects a flit every 3 000
    cycles: for longer than ``DEADLOCK_WINDOW`` nothing moves but the
    sink, and that is progress, not a deadlock."""
    config = SimulationConfig(
        width=2,
        num_vcs=2,
        routing="dor",
        traffic="trace",
        trace=[TraceEvent(0, 0, 1, size=3)],
        injection_rate=0.0,
        ejection_rate=1 / 3000,
        warmup_cycles=0,
        measure_cycles=10,
        drain_cycles=20_000,
        seed=1,
    )
    result = Simulator(config, engine_mode=mode).run()  # must not raise
    assert result.drained
    assert result.cycles_run == 9006


@pytest.mark.parametrize("mode", ["legacy", "skip"])
def test_unreachable_destination_stalls_gracefully(mode):
    """A packet routed toward a permanently dead router freezes in the
    network.  That is not a deadlock: the run stops with ``stalled`` set
    and the delivered fraction reflects the lost packet.

    The second packet takes a path disjoint from the dead router (a
    packet sharing the first one's input VC would be head-of-line
    blocked behind the frozen flit — also correct, but it would conflate
    the two effects)."""
    config = SimulationConfig(
        width=2,
        num_vcs=2,
        routing="dor",
        traffic="trace",
        trace=[TraceEvent(1, 0, 3), TraceEvent(2, 2, 0)],
        injection_rate=0.0,
        warmup_cycles=0,
        measure_cycles=50,
        drain_cycles=DEADLOCK_WINDOW + 1000,
        seed=1,
        faults=FaultSchedule((FaultEvent(0, "router", 3),)),
    )
    sim = Simulator(config, engine_mode=mode)
    result = sim.run()  # must not raise
    assert sim.stalled
    assert not result.drained
    assert result.measured_created == 2
    assert result.measured_ejected == 1
    assert result.delivered_fraction == 0.5


def test_pending_heal_defers_stall_verdict():
    """While a heal is still scheduled the watchdog keeps waiting instead
    of declaring the run stalled; after the heal the frozen packet
    delivers and the run drains normally."""
    heal_cycle = DEADLOCK_WINDOW + 2000
    config = SimulationConfig(
        width=2,
        num_vcs=2,
        routing="dor",
        traffic="trace",
        trace=[TraceEvent(1, 0, 3)],
        injection_rate=0.0,
        warmup_cycles=0,
        measure_cycles=50,
        drain_cycles=heal_cycle + 2000,
        seed=1,
        faults=FaultSchedule(
            (FaultEvent(0, "router", 3, duration=heal_cycle),)
        ),
    )
    sim = Simulator(config, engine_mode="skip")
    result = sim.run()
    assert not sim.stalled
    assert result.drained
    assert result.delivered_fraction == 1.0
    assert not math.isnan(result.latency.mean)
