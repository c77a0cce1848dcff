"""Unit tests for congestion-tree extraction."""

import pytest

from repro.core.congestion import CongestionTree, extract_congestion_tree
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.ports import Direction


class TestCongestionTreeContainer:
    def test_empty_tree(self):
        tree = CongestionTree(destination=5)
        assert tree.num_branches == 0
        assert tree.total_vcs == 0
        assert tree.max_thickness == 0
        assert tree.mean_thickness == 0.0

    def test_metrics(self):
        tree = CongestionTree(destination=5)
        tree.branches[(0, Direction.EAST)] = {0, 1, 2}
        tree.branches[(1, Direction.EAST)] = {3}
        assert tree.num_branches == 2
        assert tree.total_vcs == 4
        assert tree.max_thickness == 3
        assert tree.mean_thickness == 2.0

    def test_describe(self):
        tree = CongestionTree(destination=5)
        tree.branches[(0, Direction.EAST)] = {1}
        text = tree.describe()
        assert "destination 5" in text
        assert "n0.EAST" in text


class TestExtraction:
    def make_sim(self):
        config = SimulationConfig(
            width=4,
            num_vcs=4,
            routing="footprint",
            traffic="uniform",
            injection_rate=0.0,
            warmup_cycles=0,
            measure_cycles=10,
            drain_cycles=0,
        )
        return Simulator(config)

    def test_empty_network_empty_tree(self):
        sim = self.make_sim()
        tree = extract_congestion_tree(sim, 5)
        assert tree.num_branches == 0

    def test_owner_table_contributes(self):
        sim = self.make_sim()
        sim.routers[0].output_ports[Direction.EAST].allocate(2, dst=5)
        tree = extract_congestion_tree(sim, 5)
        assert tree.branches == {(0, Direction.EAST): {2}}

    def test_stale_owner_not_counted(self):
        sim = self.make_sim()
        port = sim.routers[0].output_ports[Direction.EAST]
        port.allocate(2, dst=5)
        # Simulate full drain: release keeps the stale owner only.
        port._release(2)
        tree = extract_congestion_tree(sim, 5)
        assert tree.num_branches == 0

    def test_buffered_flits_contribute(self):
        from repro.router.flit import Packet

        sim = self.make_sim()
        flit = Packet(src=0, dst=5, size=1, creation_time=0).flits()[0]
        # A flit destined to 5 buffered in router 1's WEST input VC 3
        # marks the upstream channel (router 0 EAST output).
        sim.routers[1].receive_flit(Direction.WEST, 3, flit)
        tree = extract_congestion_tree(sim, 5)
        assert (0, Direction.EAST) in tree.branches
        assert 3 in tree.branches[(0, Direction.EAST)]

    def test_flit_staged_in_output_fifo_contributes(self):
        from repro.router.flit import Packet

        sim = self.make_sim()
        flit = Packet(src=0, dst=5, size=1, creation_time=0).flits()[0]
        sim.routers[0].output_ports[Direction.EAST].fifo.append((flit, 2))
        tree = extract_congestion_tree(sim, 5)
        assert tree.branches == {(0, Direction.EAST): {2}}

    def test_other_destination_ignored(self):
        sim = self.make_sim()
        sim.routers[0].output_ports[Direction.EAST].allocate(2, dst=9)
        tree = extract_congestion_tree(sim, 5)
        assert tree.num_branches == 0

    def test_local_port_filter(self):
        sim = self.make_sim()
        sim.routers[5].output_ports[Direction.LOCAL].allocate(1, dst=5)
        with_local = extract_congestion_tree(sim, 5, include_local=True)
        without = extract_congestion_tree(sim, 5, include_local=False)
        assert (5, Direction.LOCAL) in with_local.branches
        assert (5, Direction.LOCAL) not in without.branches
