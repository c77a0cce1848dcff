"""Unit tests for the simulation engine's phases and bookkeeping."""

import pytest

from repro.exceptions import SimulationError
from repro.router.flit import Packet
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.traffic.factory import offered_flits_per_cycle
from repro.traffic.trace import TraceEvent
from repro.traffic.patterns import TrafficGenerator
from repro.validate import ValidationConfig


class OnePacket(TrafficGenerator):
    """Injects exactly one packet at cycle 0."""

    def __init__(self, src=0, dst=3, size=1):
        self.spec = (src, dst, size)
        self.sent = False

    def generate(self, cycle, measured):
        if self.sent:
            return []
        self.sent = True
        src, dst, size = self.spec
        return [
            Packet(src=src, dst=dst, size=size, creation_time=cycle,
                   measured=True)
        ]


def make_sim(traffic=None, **cfg):
    defaults = dict(
        width=4,
        num_vcs=2,
        routing="dor",
        traffic="uniform",
        injection_rate=0.0,
        warmup_cycles=0,
        measure_cycles=50,
        drain_cycles=200,
        seed=1,
    )
    defaults.update(cfg)
    return Simulator(SimulationConfig(**defaults), traffic=traffic)


class TestSinglePacketDelivery:
    def test_same_row_delivery(self):
        sim = make_sim(traffic=OnePacket(src=0, dst=3))
        result = sim.run()
        assert result.measured_created == 1
        assert result.measured_ejected == 1
        # 3 hops at ~2 cycles/hop plus injection/ejection: single digits.
        assert 6 <= result.avg_latency <= 14

    def test_multi_flit_delivery(self):
        sim = make_sim(traffic=OnePacket(src=0, dst=15, size=4))
        result = sim.run()
        assert result.drained
        assert sim.sinks[15].ejected_flits == 4

    def test_one_hop_latency_is_minimal(self):
        result = make_sim(traffic=OnePacket(src=0, dst=1)).run()
        # Injection + 1 link + ejection.
        assert result.avg_latency <= 8

    def test_latency_scales_with_distance(self):
        near = make_sim(traffic=OnePacket(src=0, dst=1)).run()
        far = make_sim(traffic=OnePacket(src=0, dst=15)).run()
        assert far.avg_latency > near.avg_latency + 4

    def test_early_exit_after_drain(self):
        sim = make_sim(traffic=OnePacket(src=0, dst=1))
        result = sim.run()
        # Stops right after the measurement window, not at max_cycles.
        assert result.cycles_run <= 60


class TestWindows:
    def test_warmup_packets_not_measured(self):
        config = SimulationConfig(
            width=4,
            num_vcs=2,
            routing="dor",
            traffic="uniform",
            injection_rate=0.2,
            warmup_cycles=40,
            measure_cycles=40,
            drain_cycles=400,
            seed=2,
        )
        sim = Simulator(config)
        result = sim.run()
        # Offered flits counted only within the window.
        assert result.offered_flits < sum(
            s.offered_flits for s in sim.sources
        )
        assert result.drained

    def test_blocking_sampling_only_in_window(self):
        sim = make_sim(
            traffic=None,
            injection_rate=0.6,
            routing="footprint",
            num_vcs=2,
            warmup_cycles=30,
            measure_cycles=50,
        )
        sim.run()
        # Sampling happened (saturating load on 2 VCs blocks packets).
        total = sum(r.blocking.blocking_events for r in sim.routers)
        assert total > 0


class TestWatchdog:
    def test_deadlock_detection_fires_on_stuck_network(self):
        sim = make_sim(traffic=OnePacket(src=0, dst=3))
        # Artificially wedge the network before any cycle runs: seize
        # every VC of router 1's EAST port so the packet can never
        # advance past it.
        from repro.topology.ports import Direction

        east = sim.routers[1].output_ports[Direction.EAST]
        for v in range(2):
            east.allocate(v, dst=99)
        import repro.sim.engine as engine_mod

        with pytest.raises(SimulationError):
            for _ in range(engine_mod.DEADLOCK_WINDOW + 50):
                sim.step()

    def test_idle_network_never_trips_watchdog(self):
        sim = make_sim()  # zero injection
        for _ in range(300):
            sim.step()  # must not raise


class TestConstruction:
    def test_component_counts(self):
        sim = make_sim()
        assert len(sim.routers) == 16
        assert len(sim.sources) == 16
        assert len(sim.sinks) == 16

    def test_grant_verification_belongs_to_the_vc_states_checker(self):
        def hooked(validation):
            sim = Simulator(
                SimulationConfig(width=4, num_vcs=2), validation=validation
            )
            assert sim.validator is not None
            return [r.validator is sim.validator for r in sim.routers]

        assert all(hooked(ValidationConfig()))
        assert all(hooked(ValidationConfig.only("vc_states")))
        # Was: hooked under any active config, so a conservation-only run
        # paid for (and could die of) a checker nobody enabled.
        for name in ("flit_conservation", "credit_accounting",
                     "routing_conformance"):
            assert not any(hooked(ValidationConfig.only(name)))


class TestOfferedLoad:
    """The pool's batch weights read the load the traffic kind actually
    offers — not ``injection_rate``, which hotspot and trace traffic
    never read."""

    def test_idle_hotspot_config(self):
        # 56 background nodes at 0.001: 0.06 flits/cycle, whatever the
        # (unused) injection_rate default says.
        config = SimulationConfig(
            width=8, traffic="hotspot", hotspot_rate=0.0, background_rate=0.001
        )
        assert offered_flits_per_cycle(config) == pytest.approx(0.056)

    def test_fig9_hotspot_point(self):
        config = SimulationConfig(
            width=8, traffic="hotspot", hotspot_rate=0.45,
            background_rate=0.3, injection_rate=0.01,
        )
        assert offered_flits_per_cycle(config) == pytest.approx(
            8 * 0.45 + 56 * 0.3
        )

    def test_synthetic_patterns_still_use_injection_rate(self):
        config = SimulationConfig(width=8, traffic="uniform", injection_rate=0.2)
        assert offered_flits_per_cycle(config) == pytest.approx(12.8)

    def test_trace_load_is_its_flits_over_its_span(self):
        dense = [
            TraceEvent(cycle=c, src=n, dst=(n + 1) % 64, size=3)
            for c in range(10, 20)
            for n in range(4)
        ]
        config = SimulationConfig(
            width=8, traffic="trace", trace=dense, injection_rate=0.0
        )
        assert offered_flits_per_cycle(config) == pytest.approx(12.0)
        sparse = config.with_(
            trace=[TraceEvent(cycle=c, src=0, dst=9) for c in (0, 500, 999)],
            injection_rate=0.5,
        )
        assert offered_flits_per_cycle(sparse) == pytest.approx(0.003)
        assert offered_flits_per_cycle(config.with_(trace=[])) == 0.0
