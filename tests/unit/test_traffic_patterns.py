"""Unit tests for synthetic traffic patterns."""

import random

import pytest

from repro.exceptions import ReproError
from repro.sim.config import GEOMETRY, TRAFFIC, SimulationConfig
from repro.topology.mesh import Mesh2D
from repro.traffic.patterns import (
    PATTERNS,
    SyntheticTraffic,
    pattern_destination,
)


@pytest.fixture
def mesh():
    return Mesh2D(8)


@pytest.fixture
def rng():
    return random.Random(5)


class TestDestinationFunctions:
    def test_uniform_never_self(self, mesh, rng):
        for src in range(mesh.num_nodes):
            for _ in range(20):
                dst = pattern_destination("uniform", mesh, src, rng)
                assert dst is not None
                assert dst != src
                assert 0 <= dst < mesh.num_nodes

    def test_uniform_covers_all_destinations(self, mesh, rng):
        seen = {pattern_destination("uniform", mesh, 0, rng) for _ in range(2000)}
        assert seen == set(range(1, mesh.num_nodes))

    def test_transpose(self, mesh, rng):
        # (x, y) -> (y, x): node 1 = (1,0) -> (0,1) = node 8.
        assert pattern_destination("transpose", mesh, 1, rng) == 8
        # Diagonal nodes are silent.
        assert pattern_destination("transpose", mesh, 0, rng) is None
        assert pattern_destination("transpose", mesh, 9, rng) is None

    def test_shuffle_rotates_bits(self, mesh, rng):
        # 64 nodes -> 6 bits; 5 = 000101 -> 001010 = 10.
        assert pattern_destination("shuffle", mesh, 5, rng) == 10
        # MSB wraps: 32 = 100000 -> 000001 = 1.
        assert pattern_destination("shuffle", mesh, 32, rng) == 1
        assert pattern_destination("shuffle", mesh, 0, rng) is None

    def test_bitcomp(self, mesh, rng):
        assert pattern_destination("bitcomp", mesh, 0, rng) == 63
        assert pattern_destination("bitcomp", mesh, 21, rng) == 42

    def test_bitrev(self, mesh, rng):
        # 1 = 000001 -> 100000 = 32.
        assert pattern_destination("bitrev", mesh, 1, rng) == 32

    def test_tornado(self, mesh, rng):
        # (0, 0) -> (0 + 4 - 1, 0) = (3, 0) = node 3.
        assert pattern_destination("tornado", mesh, 0, rng) == 3

    def test_neighbor(self, mesh, rng):
        assert pattern_destination("neighbor", mesh, 0, rng) == 1
        assert pattern_destination("neighbor", mesh, 7, rng) == 0  # wraps

    def test_all_patterns_minimal_contract(self, mesh, rng):
        """Every pattern returns None or a valid non-self destination."""
        for name in PATTERNS:
            for src in range(mesh.num_nodes):
                dst = pattern_destination(name, mesh, src, rng)
                if dst is not None:
                    assert 0 <= dst < mesh.num_nodes
                    assert dst != src


class TestTheTrafficTable:
    """The config's :data:`TRAFFIC` table is the one list of names."""

    def test_it_lists_every_pattern_and_hotspot_and_trace(self):
        assert set(TRAFFIC) == set(PATTERNS) | {"hotspot", "trace"}

    @staticmethod
    def _runs(name, mesh, rng):
        """Whether ``name`` answers every source of ``mesh`` with silence
        or another node, distinct nodes for distinct sources (a
        permutation) unless the pattern is random."""
        try:
            answers = [
                pattern_destination(name, mesh, src, rng)
                for src in range(mesh.num_nodes)
            ]
        except ReproError:
            return False
        sent = [(src, dst) for src, dst in enumerate(answers) if dst is not None]
        if not all(0 <= dst < mesh.num_nodes and dst != src for src, dst in sent):
            return False
        return name == "uniform" or len({dst for _, dst in sent}) == len(sent)

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_the_geometry_rule_is_exactly_where_the_pattern_runs(self, name, rng):
        rule = TRAFFIC[name]
        for width in range(2, 9):
            for height in range(2, 9):
                accepts = rule is None or GEOMETRY[rule][0](width, height)
                runs = self._runs(name, Mesh2D(width, height), rng)
                # Reversing 4-bit ids fixes 15, so on 15 nodes bitrev is
                # a permutation; the rule keeps the textbook's 2^b nodes.
                if (name, width * height) == ("bitrev", 15):
                    runs = False
                assert accepts == runs, (name, width, height)


class TestSyntheticTraffic:
    def _generator(self, mesh, rate=0.5, pattern="uniform", **cfg):
        config = SimulationConfig(
            width=mesh.width, injection_rate=rate, traffic=pattern, **cfg
        )
        return SyntheticTraffic(pattern, config, mesh, random.Random(3))

    def test_rate_matches_offered_load(self, mesh):
        gen = self._generator(mesh, rate=0.4)
        cycles = 500
        flits = sum(
            p.size for c in range(cycles) for p in gen.generate(c, True)
        )
        offered = flits / (mesh.num_nodes * cycles)
        assert offered == pytest.approx(0.4, rel=0.15)

    def test_variable_packet_sizes(self, mesh):
        gen = self._generator(mesh, rate=0.5, packet_size_range=(1, 6))
        sizes = {
            p.size for c in range(300) for p in gen.generate(c, True)
        }
        assert sizes == {1, 2, 3, 4, 5, 6}

    def test_measured_flag_propagates(self, mesh):
        gen = self._generator(mesh, rate=0.9)
        assert all(p.measured for p in gen.generate(0, True))
        assert all(not p.measured for p in gen.generate(1, False))

    def test_flow_label_is_pattern(self, mesh):
        gen = self._generator(mesh, rate=0.9)
        packets = gen.generate(0, True)
        assert packets
        assert all(p.flow == "uniform" for p in packets)

    def test_zero_rate_generates_nothing(self, mesh):
        gen = self._generator(mesh, rate=0.0)
        assert all(not gen.generate(c, True) for c in range(50))
