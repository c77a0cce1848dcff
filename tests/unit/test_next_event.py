"""Unit tests for ``TrafficGenerator.next_event_cycle`` lookahead."""

import random

import pytest

from repro.router.flit import Packet
from repro.sim.config import SimulationConfig
from repro.topology.mesh import Mesh2D
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.patterns import SyntheticTraffic, TrafficGenerator
from repro.traffic.trace import TraceEvent, TraceTraffic


class _MinimalTraffic(TrafficGenerator):
    def generate(self, cycle, measured):
        return []


def _synthetic(rate, seed=1, width=4, pattern="uniform"):
    config = SimulationConfig(
        width=width, traffic=pattern, injection_rate=rate, seed=seed
    )
    mesh = Mesh2D(width)
    return SyntheticTraffic(pattern, config, mesh, random.Random(seed))


class TestDefaultContract:
    def test_default_returns_now(self):
        # Custom generators that know nothing about skipping must keep
        # their exact cycle-by-cycle behaviour: returning ``now``
        # disables skipping.
        traffic = _MinimalTraffic()
        assert traffic.next_event_cycle(17, 1000) == 17


class TestSyntheticLookahead:
    def test_rate_zero_is_provably_silent(self):
        traffic = _synthetic(0.0)
        assert traffic.next_event_cycle(0, 10_000) is None

    def test_scan_matches_per_cycle_generation(self):
        # The lookahead must find exactly the cycle at which a twin
        # generator, stepped cycle by cycle, first produces packets —
        # and hand back the same packets.
        scanner = _synthetic(0.004, seed=9)
        stepper = _synthetic(0.004, seed=9)

        event = scanner.next_event_cycle(0, 100_000)
        assert event is not None

        for cycle in range(event):
            assert stepper.generate(cycle, True) == []
        expected = stepper.generate(event, True)
        assert expected

        got = scanner.generate(event, True)
        assert [
            (p.src, p.dst, p.size, p.creation_time) for p in got
        ] == [(p.src, p.dst, p.size, p.creation_time) for p in expected]

    def test_replayed_cycles_do_not_touch_rng(self):
        traffic = _synthetic(0.004, seed=9)
        event = traffic.next_event_cycle(0, 100_000)
        state = traffic.rng.getstate()
        # Cycles the scan already consumed replay as empty without
        # advancing the RNG.
        for cycle in range(min(event, 5)):
            assert traffic.generate(cycle, True) == []
        assert traffic.rng.getstate() == state

    def test_buffered_event_returned_without_rescanning(self):
        traffic = _synthetic(0.004, seed=9)
        event = traffic.next_event_cycle(0, 100_000)
        state = traffic.rng.getstate()
        assert traffic.next_event_cycle(0, 100_000) == event
        assert traffic.rng.getstate() == state

    def test_none_before_horizon_then_scan_resumes(self):
        traffic = _synthetic(0.004, seed=9)
        stepper = _synthetic(0.004, seed=9)
        event = stepper.next_event_cycle(0, 100_000)

        # Scan in two bounded windows; the second resumes where the
        # first stopped and still lands on the same cycle.
        half = event // 2
        assert traffic.next_event_cycle(0, half) is None
        assert traffic.next_event_cycle(half, 100_000) == event

    def test_unmeasured_replay_downgrades_packets(self):
        traffic = _synthetic(0.004, seed=9)
        event = traffic.next_event_cycle(0, 100_000)
        packets = traffic.generate(event, False)
        assert packets and all(not p.measured for p in packets)


class TestTraceLookahead:
    def _traffic(self, events):
        config = SimulationConfig(width=4, traffic="trace", trace=events)
        return TraceTraffic(events, config, Mesh2D(4), random.Random(1))

    def test_returns_next_event_cycle(self):
        traffic = self._traffic([TraceEvent(50, 0, 5), TraceEvent(90, 1, 6)])
        assert traffic.next_event_cycle(0, 10_000) == 50
        traffic.generate(50, True)
        assert traffic.next_event_cycle(51, 10_000) == 90

    def test_past_event_clamps_to_now(self):
        # An event whose cycle already passed fires on the next generate
        # call, so the lookahead reports "now", never a cycle in the past.
        traffic = self._traffic([TraceEvent(5, 0, 5)])
        assert traffic.next_event_cycle(30, 10_000) == 30

    def test_exhausted_trace_is_silent(self):
        traffic = self._traffic([TraceEvent(2, 0, 5)])
        traffic.generate(2, True)
        assert traffic.next_event_cycle(3, 10_000) is None


class TestHotspotLookahead:
    def _traffic(self, hotspot_rate, background_rate, seed=1):
        config = SimulationConfig(
            width=4,
            traffic="hotspot",
            hotspot_rate=hotspot_rate,
            background_rate=background_rate,
            seed=seed,
        )
        return HotspotTraffic(config, Mesh2D(4), random.Random(seed))

    def test_both_rates_zero_is_silent(self):
        traffic = self._traffic(0.0, 0.0)
        assert traffic.next_event_cycle(0, 10_000) is None

    def test_scan_matches_per_cycle_generation(self):
        scanner = self._traffic(0.002, 0.002, seed=5)
        stepper = self._traffic(0.002, 0.002, seed=5)

        event = scanner.next_event_cycle(0, 100_000)
        assert event is not None
        for cycle in range(event):
            assert stepper.generate(cycle, True) == []
        expected = stepper.generate(event, True)
        got = scanner.generate(event, True)
        assert [
            (p.src, p.dst, p.size, p.measured) for p in got
        ] == [(p.src, p.dst, p.size, p.measured) for p in expected]


def _hotspot(seed=1):
    config = SimulationConfig(
        width=4,
        traffic="hotspot",
        hotspot_rate=0.05,
        background_rate=0.05,
        seed=seed,
    )
    return HotspotTraffic(config, Mesh2D(4), random.Random(seed))


class TestLookaheadContract:
    """A cycle ``generate`` has drawn is never drawn again, whether by a
    repeated ``generate(c)`` or by ``next_event_cycle(c, h)``, so the
    packet stream is that of plain per-cycle generation."""

    @pytest.mark.parametrize(
        "make",
        [lambda: _synthetic(0.05, seed=3), _hotspot],
        ids=["synthetic", "hotspot"],
    )
    def test_a_drawn_cycle_is_never_drawn_again(self, make):
        probed, plain = make(), make()

        def shape(packets):
            return [
                (p.src, p.dst, p.size, p.creation_time, p.measured)
                for p in packets
            ]

        for cycle in range(600):
            if cycle % 7 == 0:  # a scan ahead, as an idle engine makes
                probed.next_event_cycle(cycle, cycle + 20)
            packets = probed.generate(cycle, True)
            assert probed.generate(cycle, True) == []
            event = probed.next_event_cycle(cycle, cycle + 1)
            assert event is None or event > cycle
            assert shape(packets) == shape(plain.generate(cycle, True))
