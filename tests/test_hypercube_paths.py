"""Unit tests for node-disjoint path construction (the availability basis)."""

import pytest

from repro.hypercube.labels import hamming_distance
from repro.hypercube.paths import node_disjoint_paths
from repro.hypercube.topology import Hypercube, IncompleteHypercube
from tests.conftest import are_node_disjoint, path_is_valid


class TestCompleteCubePaths:
    @pytest.mark.parametrize("dimension", [2, 3, 4, 5])
    def test_n_disjoint_paths_exist(self, dimension):
        cube = Hypercube(dimension)
        paths = node_disjoint_paths(cube, 0, (1 << dimension) - 1)
        assert len(paths) == dimension
        assert are_node_disjoint(paths)

    @pytest.mark.parametrize("src,dst", [(0b0000, 0b0001), (0b0101, 0b1010), (0b0011, 0b0111)])
    def test_paths_valid_and_terminate_correctly(self, src, dst):
        cube = Hypercube(4)
        for path in node_disjoint_paths(cube, src, dst):
            assert path[0] == src
            assert path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert hamming_distance(a, b) == 1

    def test_shortest_paths_have_hamming_length(self):
        cube = Hypercube(4)
        src, dst = 0b0000, 0b0110
        h = hamming_distance(src, dst)
        paths = node_disjoint_paths(cube, src, dst)
        shortest = [p for p in paths if len(p) - 1 == h]
        longer = [p for p in paths if len(p) - 1 == h + 2]
        assert len(shortest) == h
        assert len(longer) == cube.dimension - h

    def test_same_node(self):
        cube = Hypercube(3)
        assert node_disjoint_paths(cube, 5, 5) == [[5]]

    def test_max_paths_cap(self):
        cube = Hypercube(5)
        paths = node_disjoint_paths(cube, 0, 31, max_paths=2)
        assert len(paths) == 2
        assert are_node_disjoint(paths)


class TestIncompleteCubePaths:
    def test_full_incomplete_cube_gives_n_paths(self):
        cube = IncompleteHypercube(4)
        paths = node_disjoint_paths(cube, 0, 15)
        assert len(paths) == 4
        assert are_node_disjoint(paths)
        for path in paths:
            assert path_is_valid(cube, path)

    def test_missing_nodes_reduce_path_count(self):
        cube = IncompleteHypercube(3)
        cube.remove_node(1)
        cube.remove_node(2)
        paths = node_disjoint_paths(cube, 0, 7)
        assert len(paths) == 1
        assert are_node_disjoint(paths)

    def test_disconnected_pair_gives_no_paths(self):
        cube = IncompleteHypercube(3)
        for nb in (1, 2, 4):
            cube.remove_node(nb)
        assert node_disjoint_paths(cube, 0, 7) == []

    def test_same_node(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 5])
        assert node_disjoint_paths(cube, 5, 5) == [[5]]

    def test_missing_endpoint(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 1])
        assert node_disjoint_paths(cube, 0, 7) == []

    def test_paths_respect_removed_edges(self):
        cube = IncompleteHypercube(3)
        cube.remove_edge(0, 1)
        paths = node_disjoint_paths(cube, 0, 1)
        assert paths, "still reachable via a detour"
        for path in paths:
            assert path_is_valid(cube, path)

    def test_max_disjoint_path_count(self):
        assert len(node_disjoint_paths(Hypercube(4), 0, 15)) == 4
        cube = IncompleteHypercube(4)
        cube.remove_node(1)
        assert len(node_disjoint_paths(cube, 0, 15)) == 3


def _survives(dimension, source, destination, failed):
    """Remove ``failed`` and test reachability, as E1 measures it."""
    cube = IncompleteHypercube(dimension)
    for label in failed:
        cube.remove_node(label)
    return source in cube and destination in cube.reachable_from(source)


class TestSurvivability:
    def test_survives_up_to_n_minus_1_failures(self):
        # paper Section 2.1: the n-cube sustains up to n-1 node failures
        assert _survives(4, 0, 15, failed=[1, 2, 4])

    def test_endpoint_failure_not_survivable(self):
        assert not _survives(3, 0, 7, failed=[7])

    def test_partition_detected(self):
        assert not _survives(3, 0, 7, failed=[1, 2, 4])

    def test_no_failures_trivially_survives(self):
        assert _survives(3, 0, 7, failed=[])


class TestDisjointnessChecker:
    def test_shared_intermediate_detected(self):
        assert not are_node_disjoint([[0, 1, 3], [0, 1, 5]])

    def test_shared_endpoints_allowed(self):
        assert are_node_disjoint([[0, 1, 3], [0, 2, 3]])

    def test_empty_collection(self):
        assert are_node_disjoint([])
