"""Unit tests for injection sources and ejection sinks."""

import pytest

from repro.exceptions import FlowControlError
from repro.router.flit import Packet
from repro.router.router import Router
from repro.routing.registry import create_routing
from repro.sim.config import SimulationConfig
from repro.sim.endpoints import Sink, Source
from repro.sim.rng import RngStreams
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction


def make_router(node=5, num_vcs=2):
    config = SimulationConfig(
        width=4, num_vcs=num_vcs, routing="dor", traffic="uniform"
    )
    mesh = Mesh2D(4)
    return Router(
        node, mesh, config, create_routing("dor"), RngStreams(1).stream("r")
    )


def packet(src=5, dst=6, size=1):
    return Packet(src=src, dst=dst, size=size, creation_time=0)


class TestSource:
    def test_injects_one_flit_per_cycle(self):
        router = make_router()
        source = Source(5, router, num_vcs=2)
        source.enqueue(packet(size=3))
        injected = sum(1 for c in range(3) if source.inject(c))
        assert injected == 3
        assert source.backlog == 0

    def test_nothing_to_inject(self):
        source = Source(5, make_router(), num_vcs=2)
        assert not source.inject(0)

    def test_packets_round_robin_across_vcs(self):
        router = make_router()
        source = Source(5, router, num_vcs=2)
        source.enqueue(packet())
        source.enqueue(packet())
        assert source.inject(0)
        assert source.inject(1)
        occupied = [
            v
            for v, ivc in enumerate(router.input_vcs[Direction.LOCAL])
            if ivc.fifo
        ]
        assert occupied == [0, 1]

    def test_stalls_when_all_local_vcs_busy(self):
        router = make_router(num_vcs=2)
        source = Source(5, router, num_vcs=2)
        for _ in range(3):
            source.enqueue(packet())
        assert source.inject(0)
        assert source.inject(1)
        # Both local VCs now hold an unrouted packet; the third waits.
        assert not source.inject(2)
        assert source.backlog == 1

    def test_offered_flits_accounting(self):
        source = Source(5, make_router(), num_vcs=2)
        source.enqueue(packet(size=3))
        source.enqueue(packet(size=2))
        assert source.offered_flits == 5


class TestSink:
    def make_sink(self, rate=1.0, num_vcs=2, depth=4):
        ejected = []
        sink = Sink(
            node=6,
            num_vcs=num_vcs,
            buffer_depth=depth,
            ejection_rate=rate,
            on_packet=lambda p, c: ejected.append((p, c)),
        )
        return sink, ejected

    def test_drains_one_flit_per_cycle(self):
        sink, ejected = self.make_sink()
        for i, flit in enumerate(packet(dst=6, size=3).flits()):
            sink.receive(0, flit)
        consumed = []
        for cycle in range(3):
            consumed += sink.drain(cycle)
        assert len(consumed) == 3
        assert len(ejected) == 1
        assert ejected[0][1] == 2  # tail consumed at cycle 2

    def test_fractional_ejection_rate(self):
        sink, _ = self.make_sink(rate=0.5)
        for flit in packet(dst=6, size=2).flits():
            sink.receive(0, flit)
        consumed = sum(len(sink.drain(c)) for c in range(4))
        assert consumed == 2  # half bandwidth: 2 flits in 4 cycles

    def test_round_robin_across_vcs(self):
        sink, _ = self.make_sink()
        sink.receive(0, packet(dst=6).flits()[0])
        sink.receive(1, packet(dst=6).flits()[0])
        assert sink.drain(0) == [0]
        assert sink.drain(1) == [1]

    def test_misrouted_flit_rejected(self):
        sink, _ = self.make_sink()
        with pytest.raises(FlowControlError):
            sink.receive(0, packet(dst=9).flits()[0])

    def test_overflow_rejected(self):
        sink, _ = self.make_sink(depth=1)
        sink.receive(0, packet(dst=6).flits()[0])
        with pytest.raises(FlowControlError):
            sink.receive(0, packet(dst=6).flits()[0])

    def test_ejection_time_set_on_tail(self):
        sink, ejected = self.make_sink()
        p = packet(dst=6, size=1)
        sink.receive(0, p.flits()[0])
        sink.drain(9)
        assert p.ejection_time == 9
        assert ejected[0][0] is p
