"""Unit tests for the 2D torus geometry and its dateline VC classes."""

import math

import pytest

from repro.exceptions import TopologyError
from repro.topology.base import TOPOLOGIES, Topology, create_topology
from repro.topology.mesh import Mesh2D
from repro.topology.ports import COMPASS, OPPOSITE, Direction
from repro.topology.torus import Torus2D


class TestGeometry:
    def test_square_by_default(self):
        torus = Torus2D(4)
        assert (torus.width, torus.height) == (4, 4)
        assert torus.num_nodes == 16

    def test_rejects_degenerate_rings(self):
        # A 1-wide ring would make every wrap link a self-loop.
        with pytest.raises(TopologyError):
            Torus2D(1, 4)
        with pytest.raises(TopologyError):
            Torus2D(4, 1)

    def test_every_router_fully_populated(self):
        torus = Torus2D(3, 4)
        for node in range(torus.num_nodes):
            assert torus.router_ports(node) == [*COMPASS, Direction.LOCAL]

    def test_edges_wrap(self):
        torus = Torus2D(4, 3)
        # East edge wraps to column 0, north edge to the bottom row.
        assert torus.neighbor(torus.node_at(3, 1), Direction.EAST) == (
            torus.node_at(0, 1)
        )
        assert torus.neighbor(torus.node_at(0, 1), Direction.WEST) == (
            torus.node_at(3, 1)
        )
        assert torus.neighbor(torus.node_at(2, 0), Direction.NORTH) == (
            torus.node_at(2, 2)
        )
        assert torus.neighbor(torus.node_at(2, 2), Direction.SOUTH) == (
            torus.node_at(2, 0)
        )

    def test_local_neighbor_raises(self):
        with pytest.raises(TopologyError):
            Torus2D(3).neighbor(0, Direction.LOCAL)

    def test_channel_count_includes_wraps(self):
        torus = Torus2D(4, 3)
        channels = torus.channels()
        assert len(channels) == 4 * torus.num_nodes
        for src, direction, dst in channels:
            assert torus.neighbor(src, direction) == dst

    def test_hop_distance_takes_shorter_way(self):
        torus = Torus2D(8)
        # 0 -> 7 along a ring is one wrap hop, not seven mesh hops.
        assert torus.hop_distance(0, 7) == 1
        assert torus.hop_distance(0, 4) == 4
        assert torus.hop_distance(torus.node_at(0, 0), torus.node_at(3, 7)) == 4

    def test_tie_breaks_to_positive_direction(self):
        torus = Torus2D(4)
        # Distance exactly k/2 both ways: EAST (and SOUTH) must win so
        # minimal routing is deterministic across engine modes.
        assert torus.minimal_directions(
            torus.node_at(0, 0), torus.node_at(2, 0)
        ) == (Direction.EAST,)
        assert torus.minimal_directions(
            torus.node_at(0, 0), torus.node_at(0, 2)
        ) == (Direction.SOUTH,)

    def test_dor_resolves_x_before_y(self):
        torus = Torus2D(4)
        cur = torus.node_at(3, 3)
        dst = torus.node_at(1, 1)
        # X first (wrapping east: 3 -> 0 -> 1), then Y.
        assert torus.dor_direction(cur, dst) is Direction.EAST
        assert torus.dor_direction(torus.node_at(1, 3), dst) in (
            Direction.NORTH,
            Direction.SOUTH,
        )
        assert torus.dor_direction(dst, dst) is Direction.LOCAL

    def test_num_minimal_paths_uses_ring_hops(self):
        torus = Torus2D(8)
        src = torus.node_at(0, 0)
        # 1 wrap hop west x 2 hops south -> C(3, 1) orderings.
        dst = torus.node_at(7, 2)
        assert torus.num_minimal_paths(src, dst) == math.comb(3, 1)
        assert torus.num_minimal_paths(src, src) == 1

    def test_satisfies_topology_protocol(self):
        assert isinstance(Torus2D(3), Topology)
        assert isinstance(Mesh2D(3), Topology)

    def test_equality_and_hash(self):
        assert Torus2D(4, 3) == Torus2D(4, 3)
        assert Torus2D(4, 3) != Torus2D(3, 4)
        assert Torus2D(4) != Mesh2D(4)
        assert hash(Torus2D(4)) == hash(Torus2D(4, 4))


class TestDateline:
    def test_two_vc_classes_on_torus_one_on_mesh(self):
        assert Torus2D(4).num_vc_classes == 2
        assert Mesh2D(4).num_vc_classes == 1

    def test_mesh_wrap_class_is_constant_zero(self):
        mesh = Mesh2D(4)
        for src, direction, _ in mesh.channels():
            assert mesh.wrap_vc_class(src, mesh.num_nodes - 1, direction) == 0

    def test_local_hop_has_no_class(self):
        with pytest.raises(TopologyError):
            Torus2D(4).wrap_vc_class(0, 1, Direction.LOCAL)

    def test_class_zero_before_the_wrap(self):
        torus = Torus2D(4)
        dst = torus.node_at(1, 0)
        # Heading east from x=2 to x=1 the wrap (3 -> 0) is still ahead.
        assert torus.wrap_vc_class(torus.node_at(2, 0), dst, Direction.EAST) == 0

    def test_class_one_from_the_wrap_hop_onward(self):
        torus = Torus2D(4)
        dst = torus.node_at(1, 0)
        # The wrap hop itself (x=3 -> x=0) and the post-wrap hop are 1.
        assert torus.wrap_vc_class(torus.node_at(3, 0), dst, Direction.EAST) == 1
        assert torus.wrap_vc_class(torus.node_at(0, 0), dst, Direction.EAST) == 1

    def test_non_wrapping_path_rides_class_one(self):
        torus = Torus2D(8)
        dst = torus.node_at(3, 0)
        for x in range(3):
            assert (
                torus.wrap_vc_class(torus.node_at(x, 0), dst, Direction.EAST)
                == 1
            )

    def test_negative_ring_is_symmetric(self):
        torus = Torus2D(4)
        dst = torus.node_at(2, 0)
        # Heading west from x=1 towards x=2 the wrap (0 -> 3) is ahead.
        assert torus.wrap_vc_class(torus.node_at(1, 0), dst, Direction.WEST) == 0
        assert torus.wrap_vc_class(torus.node_at(0, 0), dst, Direction.WEST) == 1
        assert torus.wrap_vc_class(torus.node_at(3, 0), dst, Direction.WEST) == 1


class TestRegistry:
    def test_names(self):
        assert TOPOLOGIES == ("mesh", "torus")

    def test_create_mesh_and_torus(self):
        assert isinstance(create_topology("mesh", 4), Mesh2D)
        assert isinstance(create_topology("torus", 4, 8), Torus2D)
        assert create_topology("torus", 4, 8).height == 8

    def test_name_is_normalized(self):
        assert isinstance(create_topology(" Torus ", 4), Torus2D)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(TopologyError, match="mesh, torus"):
            create_topology("hypercube", 4)


class TestOppositeConsistency:
    def test_wrap_neighbors_are_mutual(self):
        torus = Torus2D(3, 5)
        for node in range(torus.num_nodes):
            for d in COMPASS:
                nbr = torus.neighbor(node, d)
                assert nbr is not None
                assert torus.neighbor(nbr, OPPOSITE[d]) == node
                assert torus.hop_distance(node, nbr) == 1
