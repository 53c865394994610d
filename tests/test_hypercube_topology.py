"""Unit tests for complete and incomplete hypercube topologies."""

import pytest

from repro.hypercube.topology import Hypercube, IncompleteHypercube


class TestCompleteHypercube:
    """The complete n-cube is an :class:`IncompleteHypercube` with every node.

    :class:`Hypercube` holds only the dimension that
    :func:`~repro.hypercube.paths.node_disjoint_paths` reads.
    """

    def test_size_and_diameter(self):
        cube = IncompleteHypercube(4)
        assert cube.size == 16
        assert len(cube) == 16
        assert cube.diameter() == 4

    def test_membership(self):
        cube = IncompleteHypercube(3)
        assert 0 in cube and 7 in cube
        assert 8 not in cube

    def test_neighbors_and_degree(self):
        cube = IncompleteHypercube(4)
        assert len(cube.neighbors(0)) == 4
        assert sorted(cube.neighbors(0)) == [1, 2, 4, 8]

    def test_neighbors_invalid_label(self):
        with pytest.raises(KeyError):
            IncompleteHypercube(3).neighbors(9)

    def test_edge_count(self):
        # n * 2^(n-1) edges, each seen from both ends
        cube = IncompleteHypercube(4)
        assert sum(len(cube.neighbors(label)) for label in cube.nodes()) == 2 * 4 * 8

    def test_has_edge(self):
        cube = IncompleteHypercube(3)
        assert cube.has_edge(0, 1)
        assert not cube.has_edge(0, 3)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            Hypercube(-1)


class TestIncompleteHypercube:
    def test_complete_by_default(self):
        cube = IncompleteHypercube(3)
        assert len(cube) == 8
        assert cube.is_connected()
        # 12 edges, each seen from both ends
        assert sum(len(cube.neighbors(label)) for label in cube.nodes()) == 2 * 12

    def test_subset_of_nodes(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 1, 3, 7])
        assert len(cube) == 4
        assert cube.node_set() == frozenset({0, 1, 3, 7})
        assert cube.has_edge(0, 1)
        assert cube.has_edge(1, 3)
        assert cube.has_edge(3, 7)
        assert not cube.has_edge(0, 7)

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            IncompleteHypercube(3, present_nodes=[9])

    def test_add_remove_node(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 1])
        assert cube.has_edge(0, 1)
        cube.remove_node(1)
        assert 1 not in cube
        assert not cube.has_edge(0, 1)

    def test_remove_edge(self):
        cube = IncompleteHypercube(2)
        cube.remove_edge(0, 1)
        assert not cube.has_edge(0, 1)
        assert cube.has_edge(0, 2)

    def test_remove_non_adjacent_edge_raises(self):
        cube = IncompleteHypercube(3)
        with pytest.raises(ValueError):
            cube.remove_edge(0, 3)

    def test_neighbors_of_missing_node_raises(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 1])
        with pytest.raises(KeyError):
            cube.neighbors(5)

    def test_connectivity_detection(self):
        # two isolated corners of a 3-cube
        cube = IncompleteHypercube(3, present_nodes=[0, 7])
        assert not cube.is_connected()
        assert cube.reachable_from(0) == {0}

    def test_reachability(self):
        cube = IncompleteHypercube(3)
        cube.remove_node(1)
        cube.remove_node(2)
        cube.remove_node(4)
        # node 0 is now isolated from the rest
        assert cube.reachable_from(0) == {0}
        assert 7 in cube.reachable_from(3)

    def test_diameter_of_complete_matches_dimension(self):
        for n in range(1, 5):
            assert IncompleteHypercube(n).diameter() == n

    def test_diameter_grows_when_nodes_removed(self):
        cube = IncompleteHypercube(3)
        base = cube.diameter()
        # removing 2 and 4 forces 0 <-> 6 traffic through longer detours
        cube.remove_node(2)
        assert cube.diameter() >= base

    def test_eccentricity(self):
        assert all(IncompleteHypercube(3).eccentricity(label) == 3 for label in range(8))
        # a path 0-1-3-7 through the 3-cube: the ends are 3 hops apart
        path = IncompleteHypercube(3, present_nodes=[0, 1, 3, 7])
        assert path.eccentricity(0) == 3
        assert path.eccentricity(1) == 2

    def test_reachability_of_absent_node_raises(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 1])
        with pytest.raises(KeyError):
            cube.reachable_from(5)
        with pytest.raises(KeyError):
            cube.bfs_distances(5)

    def test_bfs_distances(self):
        cube = IncompleteHypercube(3)
        dist = cube.bfs_distances(0)
        assert dist[0] == 0
        assert dist[7] == 3
        assert dist[3] == 2

    def test_copy_independent(self):
        # cubes built from one node list (as each model rebuild does) share nothing
        present = [0, 1, 2, 3, 4, 5, 6, 7]
        cube = IncompleteHypercube(3, present_nodes=present)
        clone = IncompleteHypercube(3, present_nodes=present)
        clone.remove_node(0)
        assert 0 in cube
        assert 0 not in clone
        assert present == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_empty_cube(self):
        cube = IncompleteHypercube(3, present_nodes=[])
        assert cube.is_connected()          # vacuously
        assert cube.diameter() == 0

    def test_node_set_frozen(self):
        cube = IncompleteHypercube(2, present_nodes=[0, 1])
        assert cube.node_set() == frozenset({0, 1})
