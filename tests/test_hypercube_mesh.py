"""Unit tests for the mesh tier."""

import pytest

from repro.core.identifiers import LogicalAddressSpace
from repro.geo.area import Area
from repro.geo.grid import VirtualCircleGrid
from repro.hypercube.mesh import MeshGrid, MeshMulticastTree, mesh_multicast_tree
from tests.conftest import tree_edges, tree_nodes


def mesh_without(cols, rows, *holes):
    """A ``cols x rows`` mesh with the ``holes`` absent."""
    return MeshGrid(
        cols, rows, present=[(c, r) for c in range(cols) for r in range(rows) if (c, r) not in holes]
    )


class TestMeshGrid:
    def test_complete_mesh(self):
        mesh = MeshGrid(3, 2)
        assert len(mesh) == 6
        assert (0, 0) in mesh and (2, 1) in mesh
        assert (3, 0) not in mesh

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MeshGrid(0, 2)

    def test_partial_mesh(self):
        mesh = MeshGrid(2, 2, present=[(0, 0), (1, 1)])
        assert len(mesh) == 2
        assert not mesh.has_link((0, 0), (1, 1))   # not adjacent

    def test_out_of_range_present_node(self):
        with pytest.raises(ValueError):
            MeshGrid(2, 2, present=[(2, 0)])

    def test_neighbors_four_connectivity(self):
        mesh = MeshGrid(3, 3)
        assert sorted(mesh.neighbors((1, 1))) == [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert sorted(mesh.neighbors((0, 0))) == [(0, 1), (1, 0)]

    def test_neighbors_of_absent_node_raises(self):
        mesh = MeshGrid(2, 2, present=[(0, 0)])
        with pytest.raises(KeyError):
            mesh.neighbors((1, 1))

    def test_remove_and_restore_link(self):
        # a mesh link is down exactly while one of its blocks is absent
        assert MeshGrid(2, 2).has_link((0, 0), (0, 1))
        mesh = mesh_without(2, 2, (0, 1))
        assert not mesh.has_link((0, 0), (0, 1))
        assert (0, 1) not in mesh.neighbors((0, 0))
        mesh = MeshGrid(2, 2, present=[(0, 0), (0, 1)])
        assert mesh.has_link((0, 0), (0, 1))

    def test_remove_non_adjacent_link_raises(self):
        # only 4-adjacent blocks are linked; a block off the grid is rejected
        mesh = MeshGrid(3, 3)
        assert not mesh.has_link((0, 0), (2, 2))
        assert not mesh.has_link((0, 0), (1, 1))
        with pytest.raises(ValueError):
            MeshGrid(3, 3, present=[(0, 0), (3, 3)])

    def test_add_remove_node(self):
        mesh = MeshGrid(2, 2, present=[(0, 0), (0, 1)])
        assert mesh.has_link((0, 0), (0, 1))
        mesh = MeshGrid(2, 2, present=[(0, 0)])
        assert (0, 1) not in mesh
        assert not mesh.has_link((0, 0), (0, 1))

    def test_connectivity(self):
        mesh = MeshGrid(3, 1)
        assert mesh.shortest_path((0, 0), (2, 0)) == [(0, 0), (1, 0), (2, 0)]
        with pytest.raises(ValueError):
            mesh_without(3, 1, (1, 0)).shortest_path((0, 0), (2, 0))

    def test_shortest_path(self):
        mesh = MeshGrid(4, 4)
        path = mesh.shortest_path((0, 0), (3, 3))
        assert path[0] == (0, 0) and path[-1] == (3, 3)
        assert len(path) - 1 == 6

    def test_shortest_path_detours_around_hole(self):
        mesh = mesh_without(3, 3, (1, 1))
        path = mesh.shortest_path((0, 1), (2, 1))
        assert (1, 1) not in path
        assert len(path) - 1 == 4

    def test_shortest_path_unreachable(self):
        mesh = mesh_without(3, 1, (1, 0))
        with pytest.raises(ValueError):
            mesh.shortest_path((0, 0), (2, 0))

    def test_shortest_path_absent_endpoint_raises(self):
        mesh = mesh_without(3, 1, (2, 0))
        with pytest.raises(KeyError):
            mesh.shortest_path((0, 0), (2, 0))
        with pytest.raises(KeyError):
            mesh.shortest_path((2, 0), (0, 0))

    def test_shortest_path_to_itself(self):
        assert MeshGrid(3, 3).shortest_path((1, 1), (1, 1)) == [(1, 1)]

    def test_manhattan(self):
        # on a complete mesh a route's hop count is the Manhattan distance
        path = MeshGrid(5, 5).shortest_path((0, 0), (3, 4))
        assert len(path) - 1 == 7

    def test_mesh_node_dataclass(self):
        # a mesh node is a (column, row) MNID whose HID is its row-major index
        grid = VirtualCircleGrid(Area(1200.0, 1600.0), 12, 16)
        space = LogicalAddressSpace(grid, dimension=4)   # 3 x 4 blocks
        assert space.mesh_of_hid(11) == (2, 3)
        assert space.hid_of_mesh((2, 3)) == 11
        assert space.mesh_coord_of((8, 12)) == (2, 3)


class TestMeshMulticastTree:
    def test_covers_members(self):
        mesh = MeshGrid(4, 4)
        members = [(0, 3), (3, 0), (3, 3)]
        tree = mesh_multicast_tree(mesh, (0, 0), members)
        assert set(members) <= tree_nodes(tree)
        assert tree.members == set(members)

    def test_edges_are_mesh_links(self):
        mesh = MeshGrid(4, 4)
        tree = mesh_multicast_tree(mesh, (1, 1), [(3, 3), (0, 0)])
        for parent, child in tree_edges(tree):
            assert mesh.has_link(parent, child)

    def test_unreachable_member_skipped(self):
        mesh = mesh_without(3, 1, (1, 0))
        tree = mesh_multicast_tree(mesh, (0, 0), [(2, 0)])
        assert (2, 0) not in tree.members

    def test_absent_root(self):
        mesh = MeshGrid(2, 2, present=[(1, 1)])
        tree = mesh_multicast_tree(mesh, (0, 0), [(1, 1)])
        assert tree.members == set()

    def test_depth_and_children(self):
        mesh = MeshGrid(3, 1)
        tree = mesh_multicast_tree(mesh, (0, 0), [(2, 0)])
        assert tree.children_of((0, 0)) == [(1, 0)]
        assert tree.children_of((1, 0)) == [(2, 0)]

    def test_serialize_roundtrip(self):
        mesh = MeshGrid(3, 3)
        tree = mesh_multicast_tree(mesh, (0, 0), [(2, 2), (0, 2)])
        restored = MeshMulticastTree.deserialize(tree.serialize())
        assert restored.root == tree.root
        assert restored.members == tree.members
        assert {k: sorted(v) for k, v in restored.children.items()} == {
            k: sorted(v) for k, v in tree.children.items()
        }
