"""Unit tests for trace-driven traffic."""

import random

import pytest

from repro.exceptions import TrafficError
from repro.sim.config import SimulationConfig
from repro.topology.mesh import Mesh2D
from repro.traffic.trace import TraceEvent, TraceTraffic


@pytest.fixture
def mesh():
    return Mesh2D(4)


def make_traffic(mesh, events):
    config = SimulationConfig(width=mesh.width, traffic="trace", trace=events)
    return TraceTraffic(events, config, mesh, random.Random(1))


class TestTraceEvent:
    def test_valid(self):
        e = TraceEvent(cycle=5, src=0, dst=3, size=2, flow="x")
        assert e.cycle == 5

    def test_invalid_cycle(self):
        with pytest.raises(TrafficError):
            TraceEvent(cycle=-1, src=0, dst=1)

    def test_invalid_size(self):
        with pytest.raises(TrafficError):
            TraceEvent(cycle=0, src=0, dst=1, size=0)


class TestReplay:
    def test_events_fire_at_their_cycle(self, mesh):
        traffic = make_traffic(
            mesh, [TraceEvent(2, 0, 5), TraceEvent(4, 1, 6)]
        )
        assert traffic.generate(0, True) == []
        assert len(traffic.generate(2, True)) == 1
        assert len(traffic.generate(3, True)) == 0
        assert len(traffic.generate(4, True)) == 1
        assert traffic.remaining == 0

    def test_late_start_catches_up(self, mesh):
        traffic = make_traffic(
            mesh, [TraceEvent(1, 0, 5), TraceEvent(2, 1, 6)]
        )
        packets = traffic.generate(10, True)
        assert len(packets) == 2

    def test_unsorted_events_are_sorted(self, mesh):
        traffic = make_traffic(
            mesh, [TraceEvent(9, 0, 5), TraceEvent(1, 1, 6)]
        )
        first = traffic.generate(1, True)
        assert len(first) == 1
        assert first[0].src == 1

    def test_packet_fields(self, mesh):
        traffic = make_traffic(
            mesh, [TraceEvent(0, 2, 7, size=3, flow="app")]
        )
        (packet,) = traffic.generate(0, True)
        assert (packet.src, packet.dst, packet.size) == (2, 7, 3)
        assert packet.flow == "app"
        assert packet.measured

    def test_out_of_mesh_event_rejected(self, mesh):
        with pytest.raises(TrafficError):
            make_traffic(mesh, [TraceEvent(0, 0, 99)])

    def test_self_addressed_rejected(self, mesh):
        with pytest.raises(TrafficError):
            make_traffic(mesh, [TraceEvent(0, 3, 3)])
