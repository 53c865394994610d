"""Unit tests for routing on (possibly incomplete) hypercubes.

The one hypercube router is :func:`shortest_path` (BFS).  On a complete
cube it is the e-cube route: BFS expands neighbours in dimension order,
so each node's first-found parent is its label with the highest differing
bit cleared, and the route corrects the differing dimensions lowest
first.  Fault-tolerant routing is the same BFS on a cube with the failed
nodes or links taken out.  A route's logical hop count is
:attr:`LogicalRoute.logical_hops`.
"""

import pytest

from repro.core.route_maintenance import LinkQoS, LogicalRoute
from repro.hypercube.labels import hamming_distance
from repro.hypercube.routing import RoutingError, shortest_path
from repro.hypercube.topology import IncompleteHypercube
from tests.conftest import path_is_valid


class TestEcube:
    def test_next_hop_corrects_lowest_dimension(self):
        assert shortest_path(IncompleteHypercube(4), 0b0000, 0b1010)[1] == 0b0010

    def test_next_hop_descending(self):
        # read from the destination, the route corrects the highest dimension first
        path = shortest_path(IncompleteHypercube(4), 0b0000, 0b1010)
        assert path[-2] == 0b1010 ^ 0b1000

    def test_next_hop_at_destination_raises(self):
        cube = IncompleteHypercube(3)
        # at the destination there is no next hop ...
        assert shortest_path(cube, 5, 5)[1:] == []
        # ... and a label outside the cube is no destination
        with pytest.raises(RoutingError):
            shortest_path(cube, 5, 8)

    def test_path_length_equals_hamming_distance(self):
        path = shortest_path(IncompleteHypercube(4), 0b0011, 0b1100)
        assert len(path) - 1 == hamming_distance(0b0011, 0b1100)
        assert path[0] == 0b0011
        assert path[-1] == 0b1100

    def test_path_consecutive_hops_adjacent(self):
        path = shortest_path(IncompleteHypercube(4), 0, 15)
        for a, b in zip(path, path[1:]):
            assert hamming_distance(a, b) == 1

    def test_trivial_path(self):
        assert shortest_path(IncompleteHypercube(4), 6, 6) == [6]


class TestShortestPath:
    def test_on_complete_cube_matches_hamming(self):
        cube = IncompleteHypercube(4)
        path = shortest_path(cube, 0b0000, 0b1111)
        assert len(path) - 1 == 4

    def test_detour_when_nodes_missing(self):
        cube = IncompleteHypercube(3)
        cube.remove_node(1)  # 0-1-3 blocked
        path = shortest_path(cube, 0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert 1 not in path
        assert path_is_valid(cube, path)

    def test_unreachable_raises(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 7])
        with pytest.raises(RoutingError):
            shortest_path(cube, 0, 7)

    def test_missing_endpoint_raises(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 1])
        with pytest.raises(RoutingError):
            shortest_path(cube, 0, 5)
        with pytest.raises(RoutingError):
            shortest_path(cube, 5, 0)

    def test_same_source_destination(self):
        cube = IncompleteHypercube(3)
        assert shortest_path(cube, 4, 4) == [4]


class TestFaultTolerantPath:
    def test_prefers_ecube_when_intact(self):
        path = shortest_path(IncompleteHypercube(4), 0b0000, 0b0101)
        assert path == [0b0000, 0b0001, 0b0101]

    def test_detours_around_failed_node(self):
        cube = IncompleteHypercube(4)
        failed = shortest_path(cube, 0b0000, 0b1111)[1]
        cube.remove_node(failed)
        path = shortest_path(cube, 0b0000, 0b1111)
        assert failed not in path
        assert path[0] == 0b0000 and path[-1] == 0b1111
        assert path_is_valid(cube, path)

    def test_detours_around_missing_link(self):
        cube = IncompleteHypercube(3, removed_edges=[(0, 1)])
        path = shortest_path(cube, 0, 1)
        assert path[0] == 0 and path[-1] == 1
        assert len(path) > 2
        assert path_is_valid(cube, path)

    def test_avoiding_endpoint_raises(self):
        cube = IncompleteHypercube(3)
        cube.remove_node(7)
        with pytest.raises(RoutingError):
            shortest_path(cube, 0, 7)

    def test_no_route_raises(self):
        cube = IncompleteHypercube(3)
        # sever every neighbour of node 0
        for nb in (1, 2, 4):
            cube.remove_node(nb)
        with pytest.raises(RoutingError):
            shortest_path(cube, 0, 7)

    def test_survives_n_minus_1_failures(self):
        # the paper's fault-tolerance claim: an n-cube pair survives any
        # n-1 node failures (here: remove 3 arbitrary non-endpoint nodes of a 4-cube)
        cube = IncompleteHypercube(4)
        for failed in (1, 2, 4):
            cube.remove_node(failed)
        path = shortest_path(cube, 0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert path_is_valid(cube, path)


def logical_route(*path):
    return LogicalRoute(path=tuple(path), qos=LinkQoS(0.01, 1e6, 0.0))


class TestHelpers:
    def test_logical_hop_count_paper_example(self):
        # 1000 -> 1100 -> 1101 comprises 2 logical hops (Section 4.1)
        assert logical_route(0b1000, 0b1100, 0b1101).logical_hops == 2

    def test_logical_hop_count_single_node(self):
        assert logical_route(3).logical_hops == 0

    def test_logical_hop_count_empty_raises(self):
        # no route is empty: a route from an absent node raises instead
        cube = IncompleteHypercube(3, present_nodes=[1, 3])
        with pytest.raises(RoutingError):
            shortest_path(cube, 0, 3)
        assert logical_route(*shortest_path(cube, 1, 3)).logical_hops == 1

    def test_path_is_valid_rejects_broken_path(self):
        cube = IncompleteHypercube(3)
        cube.remove_node(1)
        assert not path_is_valid(cube, [0, 1, 3])
        assert not path_is_valid(cube, [])
        assert path_is_valid(cube, [0, 2, 3])
