"""Property-based tests (hypothesis) for the hypercube substrate.

These check the structural invariants the paper's availability and
small-diameter claims rest on, over randomly generated cubes, node pairs
and damage patterns.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypercube.labels import differing_dimensions, hamming_distance, label_to_bits
from repro.hypercube.multicast_tree import greedy_multicast_tree
from repro.hypercube.paths import node_disjoint_paths
from repro.hypercube.routing import RoutingError, shortest_path
from repro.hypercube.topology import Hypercube, IncompleteHypercube
from tests.conftest import (
    are_node_disjoint,
    gray_code,
    is_valid_tree,
    path_is_valid,
    subcube_members,
    tree_depths,
    tree_edges,
    tree_nodes,
)

dimensions = st.integers(min_value=2, max_value=6)


@st.composite
def cube_and_pair(draw):
    """A dimension and two distinct labels of that cube."""
    n = draw(dimensions)
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return n, a, b


@st.composite
def damaged_cube(draw):
    """An incomplete hypercube plus two present nodes."""
    n = draw(dimensions)
    labels = list(range(1 << n))
    present = draw(
        st.sets(st.sampled_from(labels), min_size=2, max_size=len(labels))
    )
    present = sorted(present)
    a = draw(st.sampled_from(present))
    b = draw(st.sampled_from(present))
    return IncompleteHypercube(n, present), a, b


class TestLabelProperties:
    @given(cube_and_pair())
    def test_hamming_symmetry_and_triangle(self, data):
        n, a, b = data
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert 0 <= hamming_distance(a, b) <= n
        # triangle inequality via 0
        assert hamming_distance(a, b) <= hamming_distance(a, 0) + hamming_distance(0, b)

    @given(cube_and_pair())
    def test_differing_dimensions_matches_hamming(self, data):
        n, a, b = data
        dims = differing_dimensions(a, b)
        assert len(dims) == hamming_distance(a, b)
        assert dims == sorted(dims)
        assert all(0 <= d < n for d in dims)

    @given(dimensions, st.integers(min_value=0, max_value=63))
    def test_neighbors_are_at_distance_one(self, n, label):
        label %= 1 << n
        nbs = IncompleteHypercube(n).neighbors(label)
        assert len(set(nbs)) == n
        assert all(hamming_distance(label, nb) == 1 for nb in nbs)

    @given(dimensions)
    def test_gray_code_is_hamiltonian_path(self, n):
        code = gray_code(n)
        cube = IncompleteHypercube(n)
        assert sorted(code) == list(cube.nodes())
        assert path_is_valid(cube, code)

    @given(dimensions, st.data())
    def test_subcube_split_symmetry(self, n, data):
        # any (k+1)-pattern splits into two disjoint k-patterns (paper Section 2.1)
        pattern = data.draw(
            st.lists(st.sampled_from("01*"), min_size=n, max_size=n).map("".join)
        )
        members = subcube_members(pattern)
        if "*" in pattern:
            idx = pattern.index("*")
            half0 = subcube_members(pattern[:idx] + "0" + pattern[idx + 1:])
            half1 = subcube_members(pattern[:idx] + "1" + pattern[idx + 1:])
            assert sorted(half0 + half1) == members
            assert not set(half0) & set(half1)
            # each half is joined to the other by one live link per node
            cube = IncompleteHypercube(n, present_nodes=members)
            bit = 1 << (n - 1 - idx)
            for label in half0:
                assert [nb for nb in cube.neighbors(label) if nb in half1] == [label ^ bit]
        else:
            assert len(members) == 1

    @given(dimensions, st.integers(min_value=0, max_value=63))
    def test_label_bits_roundtrip(self, n, label):
        label %= 1 << n
        assert int(label_to_bits(label, n), 2) == label


class TestRoutingProperties:
    @given(cube_and_pair())
    def test_ecube_path_is_shortest(self, data):
        # on a complete cube the BFS route is the e-cube route
        n, a, b = data
        path = shortest_path(IncompleteHypercube(n), a, b)
        assert len(path) - 1 == hamming_distance(a, b)
        assert all(hamming_distance(x, y) == 1 for x, y in zip(path, path[1:]))
        assert len(set(path)) == len(path)   # no repeated nodes
        flipped = [(x ^ y).bit_length() - 1 for x, y in zip(path, path[1:])]
        assert flipped == differing_dimensions(a, b)

    @given(damaged_cube())
    def test_shortest_path_valid_or_unreachable(self, data):
        cube, a, b = data
        try:
            path = shortest_path(cube, a, b)
        except RoutingError:
            assert b not in cube.reachable_from(a)
            return
        assert path[0] == a and path[-1] == b
        assert path_is_valid(cube, path)
        # optimality: BFS distance equals path length
        assert len(path) - 1 == cube.bfs_distances(a).get(b)

    @given(damaged_cube(), st.data())
    def test_fault_tolerant_path_valid_when_reachable(self, cube_data, data):
        # routing around failures is BFS on the cube with the failed nodes out
        cube, a, b = cube_data
        for label in data.draw(st.sets(st.sampled_from(sorted(cube.node_set())), max_size=3)):
            if label not in (a, b):
                cube.remove_node(label)
        if b not in cube.reachable_from(a):
            return
        path = shortest_path(cube, a, b)
        assert path[0] == a and path[-1] == b
        assert path_is_valid(cube, path)


class TestDisjointPathProperties:
    @given(cube_and_pair())
    @settings(max_examples=60)
    def test_complete_cube_has_n_disjoint_paths(self, data):
        n, a, b = data
        if a == b:
            return
        paths = node_disjoint_paths(Hypercube(n), a, b)
        assert len(paths) == n
        assert are_node_disjoint(paths)
        for path in paths:
            assert path[0] == a and path[-1] == b
            assert all(hamming_distance(x, y) == 1 for x, y in zip(path, path[1:]))

    @given(damaged_cube())
    @settings(max_examples=60)
    def test_incomplete_cube_paths_disjoint_and_valid(self, data):
        cube, a, b = data
        if a == b:
            return
        paths = node_disjoint_paths(cube, a, b)
        assert are_node_disjoint(paths)
        for path in paths:
            assert path[0] == a and path[-1] == b
            assert path_is_valid(cube, path)

    @given(damaged_cube())
    @settings(max_examples=60)
    def test_path_count_bounded_by_min_degree(self, data):
        cube, a, b = data
        if a == b or b not in cube.reachable_from(a):
            return
        paths = node_disjoint_paths(cube, a, b)
        assert 1 <= len(paths) <= min(len(cube.neighbors(a)), len(cube.neighbors(b)))


class TestMulticastTreeProperties:
    @given(dimensions, st.data())
    @settings(max_examples=60)
    def test_binomial_tree_covers_and_is_tree(self, n, data):
        # on a complete cube the greedy tree is the binomial tree
        members = data.draw(
            st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=1 << n)
        )
        root = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        tree = greedy_multicast_tree(IncompleteHypercube(n), root, members)
        assert set(members) <= tree_nodes(tree)
        assert is_valid_tree(tree)
        assert max(tree_depths(tree).values()) <= n
        for parent, child in tree_edges(tree):
            assert hamming_distance(parent, child) == 1
            assert parent == child ^ (1 << ((child ^ root).bit_length() - 1))

    @given(damaged_cube(), st.data())
    @settings(max_examples=60)
    def test_greedy_tree_reaches_every_reachable_member(self, cube_data, data):
        cube, root, _ = cube_data
        members = data.draw(st.sets(st.sampled_from(sorted(cube.node_set())), max_size=8))
        tree = greedy_multicast_tree(cube, root, members)
        reachable = cube.reachable_from(root)
        for member in members:
            if member in reachable:
                assert member in tree.members
            else:
                assert member not in tree.members
        assert is_valid_tree(tree)
        for parent, child in tree_edges(tree):
            assert cube.has_edge(parent, child)
