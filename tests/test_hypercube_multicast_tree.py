"""Unit tests for hypercube-tier multicast trees."""

from repro.hypercube.labels import hamming_distance
from repro.hypercube.multicast_tree import MulticastTree, greedy_multicast_tree
from repro.hypercube.topology import IncompleteHypercube
from tests.conftest import is_valid_tree, tree_depths, tree_edges, tree_nodes


def broadcast_tree(dimension, root, members):
    return greedy_multicast_tree(IncompleteHypercube(dimension), root, members)


class TestBinomialTree:
    """On a complete cube the greedy tree is the binomial tree.

    Each member is grafted along its BFS route, which on a complete cube
    corrects the differing dimensions lowest first, so every node's parent
    is its label with the highest bit it differs from the root in cleared.
    """

    def test_covers_all_members(self):
        members = [1, 3, 7, 12, 15]
        tree = broadcast_tree(4, 0, members)
        assert set(members) <= tree_nodes(tree)
        assert is_valid_tree(tree)

    def test_edges_are_hypercube_links(self):
        tree = broadcast_tree(4, 0, range(16))
        for parent, child in tree_edges(tree):
            assert hamming_distance(parent, child) == 1

    def test_broadcast_tree_spans_whole_cube(self):
        tree = broadcast_tree(4, 5, range(16))
        assert tree_nodes(tree) == set(range(16))
        assert len(tree_edges(tree)) == 15
        for parent, child in tree_edges(tree):
            highest = 1 << ((child ^ 5).bit_length() - 1)
            assert parent == child ^ highest

    def test_depth_bounded_by_dimension(self):
        tree = broadcast_tree(5, 0, range(32))
        depths = tree_depths(tree)
        assert max(depths.values()) <= 5
        assert all(depth == hamming_distance(0, node) for node, depth in depths.items())

    def test_fanout_bounded_by_dimension(self):
        tree = broadcast_tree(4, 0, range(16))
        assert max(len(tree.children_of(node)) for node in tree_nodes(tree)) <= 4

    def test_empty_member_set(self):
        tree = broadcast_tree(3, 2, [])
        assert tree_nodes(tree) == {2}
        assert tree_edges(tree) == []

    def test_root_only_member(self):
        tree = broadcast_tree(3, 2, [2])
        assert tree_nodes(tree) == {2}
        assert tree.members == {2}

    def test_invalid_member(self):
        # a label outside the cube is skipped, not grafted
        tree = broadcast_tree(3, 0, [9])
        assert tree.members == set()
        assert tree_nodes(tree) == {0}

    def test_invalid_root(self):
        # a root outside the cube roots no tree
        tree = broadcast_tree(3, 8, [1])
        assert tree.members == set()
        assert tree_edges(tree) == []

    def test_single_parent_invariant(self):
        tree = broadcast_tree(5, 7, [0, 1, 2, 3, 30, 31, 17, 21])
        parents = {}
        for parent, child in tree_edges(tree):
            assert child not in parents
            parents[child] = parent


class TestGreedyTree:
    def test_covers_members_on_complete_cube(self):
        cube = IncompleteHypercube(4)
        members = [3, 5, 12, 15]
        tree = greedy_multicast_tree(cube, 0, members)
        assert set(members) <= tree_nodes(tree)
        assert tree.members == set(members)
        assert is_valid_tree(tree)

    def test_edges_exist_in_cube(self):
        cube = IncompleteHypercube(4)
        cube.remove_node(1)
        cube.remove_node(2)
        tree = greedy_multicast_tree(cube, 0, [7, 15])
        for parent, child in tree_edges(tree):
            assert cube.has_edge(parent, child)

    def test_unreachable_members_skipped(self):
        cube = IncompleteHypercube(3)
        for nb in (1, 2, 4):
            cube.remove_node(nb)  # isolate node 0
        tree = greedy_multicast_tree(cube, 0, [7])
        assert 7 not in tree.members
        assert tree_nodes(tree) == {0}

    def test_absent_members_skipped(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 1, 3])
        tree = greedy_multicast_tree(cube, 0, [3, 6])
        assert tree.members == {3}

    def test_root_absent_gives_empty_tree(self):
        cube = IncompleteHypercube(3, present_nodes=[1, 3])
        tree = greedy_multicast_tree(cube, 0, [3])
        assert tree.members == set()

    def test_root_member_included(self):
        cube = IncompleteHypercube(3)
        tree = greedy_multicast_tree(cube, 4, [4, 6])
        assert 4 in tree.members


class TestTreeStructure:
    def test_serialize_roundtrip(self):
        tree = greedy_multicast_tree(IncompleteHypercube(4), 0, [1, 6, 9, 15])
        data = tree.serialize()
        restored = MulticastTree.deserialize(data)
        assert restored.root == tree.root
        assert restored.members == tree.members
        assert {k: sorted(v) for k, v in restored.children.items()} == {
            k: sorted(v) for k, v in tree.children.items()
        }

    def test_parent_of_and_children_of(self):
        tree = MulticastTree(root=0, children={0: [1, 2], 2: [6]}, members={1, 6})
        assert tree.children_of(0) == [1, 2]
        assert tree.children_of(2) == [6]
        assert tree.children_of(5) == []

    def test_invalid_tree_detected_multiple_parents(self):
        tree = MulticastTree(root=0, children={0: [1], 2: [1]}, members={1})
        assert not is_valid_tree(tree)

    def test_invalid_tree_detected_root_with_parent(self):
        tree = MulticastTree(root=0, children={1: [0]}, members=set())
        assert not is_valid_tree(tree)

    def test_forwarding_load_counts_children(self):
        # a node's forwarding load is the number of children it copies to
        tree = MulticastTree(root=0, children={0: [1, 2, 4], 4: [5]}, members={1, 2, 5})
        assert len(tree.children_of(0)) == 3
        assert len(tree.children_of(4)) == 1
        assert len(tree.children_of(1)) == 0
