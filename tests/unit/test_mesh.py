"""Unit tests for 2D-mesh geometry."""

import pytest

from repro.exceptions import TopologyError
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction


class TestConstruction:
    def test_square_default(self):
        mesh = Mesh2D(4)
        assert mesh.width == 4
        assert mesh.height == 4
        assert mesh.num_nodes == 16

    def test_rectangular(self):
        mesh = Mesh2D(4, 2)
        assert mesh.num_nodes == 8
        assert mesh.coords(7) == (3, 1)

    @pytest.mark.parametrize("w,h", [(1, 4), (4, 1), (0, 0), (1, 1)])
    def test_too_small_rejected(self, w, h):
        with pytest.raises(TopologyError):
            Mesh2D(w, h)

    def test_equality_and_hash(self):
        assert Mesh2D(4) == Mesh2D(4, 4)
        assert Mesh2D(4) != Mesh2D(4, 2)
        assert hash(Mesh2D(8)) == hash(Mesh2D(8, 8))


class TestCoordinates:
    def test_row_major_numbering(self, mesh4):
        # Node 10 in a 4x4 mesh is at column 2, row 2 (paper's Fig. 2).
        assert mesh4.coords(10) == (2, 2)
        assert mesh4.node_at(2, 2) == 10

    def test_roundtrip(self, mesh4):
        for node in range(mesh4.num_nodes):
            assert mesh4.node_at(*mesh4.coords(node)) == node

    def test_out_of_range_node(self, mesh4):
        with pytest.raises(TopologyError):
            mesh4.coords(16)
        with pytest.raises(TopologyError):
            mesh4.coords(-1)

    def test_out_of_range_coords(self, mesh4):
        with pytest.raises(TopologyError):
            mesh4.node_at(4, 0)
        with pytest.raises(TopologyError):
            mesh4.node_at(0, -1)


class TestNeighbors:
    def test_interior_node(self, mesh4):
        # Node 5 = (1, 1).
        assert mesh4.neighbor(5, Direction.EAST) == 6
        assert mesh4.neighbor(5, Direction.WEST) == 4
        assert mesh4.neighbor(5, Direction.NORTH) == 1
        assert mesh4.neighbor(5, Direction.SOUTH) == 9

    def test_corner_edges(self, mesh4):
        assert mesh4.neighbor(0, Direction.WEST) is None
        assert mesh4.neighbor(0, Direction.NORTH) is None
        assert mesh4.neighbor(15, Direction.EAST) is None
        assert mesh4.neighbor(15, Direction.SOUTH) is None

    def test_local_raises(self, mesh4):
        with pytest.raises(TopologyError):
            mesh4.neighbor(0, Direction.LOCAL)

    def test_router_ports_corner(self, mesh4):
        ports = mesh4.router_ports(0)
        assert set(ports) == {Direction.EAST, Direction.SOUTH, Direction.LOCAL}
        assert ports[-1] is Direction.LOCAL

    def test_router_ports_interior(self, mesh4):
        assert len(mesh4.router_ports(5)) == 5

    def test_channel_count(self, mesh4):
        # A k x k mesh has 2 * 2 * k * (k-1) unidirectional links.
        assert len(mesh4.channels()) == 2 * 2 * 4 * 3

    def test_channels_are_symmetric(self, mesh4):
        channels = set(mesh4.channels())
        from repro.topology.ports import OPPOSITE

        for src, d, dst in channels:
            assert (dst, OPPOSITE[d], src) in channels


class TestMinimalRouting:
    def test_hop_distance(self, mesh4):
        assert mesh4.hop_distance(0, 15) == 6
        assert mesh4.hop_distance(5, 5) == 0
        assert mesh4.hop_distance(0, 3) == 3

    def test_minimal_directions_quadrant(self, mesh4):
        dirs = mesh4.minimal_directions(0, 10)
        assert dirs == (Direction.EAST, Direction.SOUTH)

    def test_minimal_directions_same_row(self, mesh4):
        assert mesh4.minimal_directions(0, 3) == (Direction.EAST,)
        assert mesh4.minimal_directions(3, 0) == (Direction.WEST,)

    def test_minimal_directions_same_column(self, mesh4):
        assert mesh4.minimal_directions(0, 12) == (Direction.SOUTH,)
        assert mesh4.minimal_directions(12, 0) == (Direction.NORTH,)

    def test_minimal_directions_at_destination(self, mesh4):
        assert mesh4.minimal_directions(7, 7) == ()

    def test_dor_is_x_first(self, mesh4):
        # Paper's Fig. 2: f1 = n0 -> n10 goes east through n1, n2 first.
        assert mesh4.dor_direction(0, 10) is Direction.EAST
        assert mesh4.dor_direction(2, 10) is Direction.SOUTH

    def test_dor_at_destination(self, mesh4):
        assert mesh4.dor_direction(9, 9) is Direction.LOCAL

    def test_fig2_flows_converge_on_n1_n2(self, mesh4):
        # f1 = n0->n10 and f2 = n1->n15 share the link n1 -> n2 under DOR.
        assert mesh4.dor_direction(1, 10) is Direction.EAST
        assert mesh4.dor_direction(1, 15) is Direction.EAST

    def test_num_minimal_paths(self, mesh4):
        assert mesh4.num_minimal_paths(0, 3) == 1
        assert mesh4.num_minimal_paths(0, 5) == 2
        assert mesh4.num_minimal_paths(0, 15) == 20  # C(6, 3)

    def test_minimal_direction_cache_consistency(self, mesh4):
        first = mesh4.minimal_directions(0, 10)
        second = mesh4.minimal_directions(0, 10)
        assert first == second


class TestRepr:
    def test_repr(self, mesh4):
        assert "4x4" in repr(mesh4)
