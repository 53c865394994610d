"""Unit tests for multicast tree computation and caching (paper Figure 6)."""

import pytest

from repro.core.membership import HTSummary, MTSummary
from repro.core.multicast_routing import (
    MulticastForwardingState,
    compute_hypercube_tree,
    compute_mesh_tree,
)
from repro.hypercube.mesh import MeshGrid
from repro.hypercube.topology import IncompleteHypercube


def mt_summary_with(group, coords):
    mt = MTSummary()
    for coord in coords:
        mt.update_from_ht(HTSummary(0, {group: {0}}), mesh_coord=coord)
    return mt


class TestComputeMeshTree:
    def test_tree_covers_mt_summary_mesh_nodes(self):
        mesh = MeshGrid(3, 3)
        mt = mt_summary_with(1, [(2, 2), (0, 2)])
        tree = compute_mesh_tree(mesh, (0, 0), mt, group=1)
        assert tree.members == {(0, 0), (2, 2), (0, 2)}
        assert tree.root == (0, 0)

    def test_root_always_included(self):
        mesh = MeshGrid(2, 2)
        tree = compute_mesh_tree(mesh, (1, 1), MTSummary(), group=1)
        assert tree.root == (1, 1)
        assert (1, 1) in tree.members

    def test_group_isolation(self):
        mesh = MeshGrid(2, 2)
        mt = mt_summary_with(1, [(1, 0)])
        tree = compute_mesh_tree(mesh, (0, 0), mt, group=2)
        assert (1, 0) not in tree.members


class TestComputeHypercubeTree:
    def test_tree_covers_ht_summary_hnids(self):
        cube = IncompleteHypercube(4)
        ht = HTSummary(0, {1: {3, 7, 12}})
        tree = compute_hypercube_tree(cube, 0, ht, group=1)
        assert {3, 7, 12} <= tree.members

    def test_absent_members_skipped(self):
        cube = IncompleteHypercube(3, present_nodes=[0, 1, 3])
        ht = HTSummary(0, {1: {3, 6}})
        tree = compute_hypercube_tree(cube, 0, ht, group=1)
        assert 3 in tree.members
        assert 6 not in tree.members


class TestForwardingStateCache:
    def test_mesh_tree_cache_hit_on_same_members(self):
        state = MulticastForwardingState()
        mesh = MeshGrid(3, 3)
        mt = mt_summary_with(1, [(2, 2)])
        t1 = state.mesh_tree(mesh, (0, 0), mt, group=1)
        t2 = state.mesh_tree(mesh, (0, 0), mt, group=1)
        assert t1 is t2
        assert state.mesh_tree_hits == 1
        assert state.mesh_tree_misses == 1

    def test_mesh_tree_cache_miss_on_membership_change(self):
        state = MulticastForwardingState()
        mesh = MeshGrid(3, 3)
        t1 = state.mesh_tree(mesh, (0, 0), mt_summary_with(1, [(2, 2)]), group=1)
        t2 = state.mesh_tree(mesh, (0, 0), mt_summary_with(1, [(2, 2), (0, 2)]), group=1)
        assert t1 is not t2
        assert state.mesh_tree_misses == 2

    def test_mesh_tree_cache_miss_on_root_change(self):
        state = MulticastForwardingState()
        mesh = MeshGrid(3, 3)
        mt = mt_summary_with(1, [(2, 2)])
        state.mesh_tree(mesh, (0, 0), mt, group=1)
        state.mesh_tree(mesh, (1, 1), mt, group=1)
        assert state.mesh_tree_misses == 2

    def test_cube_tree_cache_keyed_by_group_and_root(self):
        state = MulticastForwardingState()
        cube = IncompleteHypercube(4)
        ht = HTSummary(0, {1: {5}, 2: {7}})
        a = state.hypercube_tree(cube, 0, ht, group=1)
        b = state.hypercube_tree(cube, 0, ht, group=1)
        c = state.hypercube_tree(cube, 3, ht, group=1)
        d = state.hypercube_tree(cube, 0, ht, group=2)
        assert a is b
        assert a is not c
        assert a is not d
        assert state.cube_tree_hits == 1
        assert state.cube_tree_misses == 3

    def test_invalidate_group(self):
        state = MulticastForwardingState()
        mesh = MeshGrid(2, 2)
        cube = IncompleteHypercube(3)
        ht = HTSummary(0, {1: {3}})
        mt = mt_summary_with(1, [(1, 1)])
        state.mesh_tree(mesh, (0, 0), mt, group=1)
        state.hypercube_tree(cube, 0, ht, group=1)
        state.invalidate_group(1)
        assert state.mesh_trees == {}
        assert state.cube_trees == {}

    def test_invalidate_group_keeps_other_groups(self):
        state = MulticastForwardingState()
        mesh = MeshGrid(2, 2)
        state.mesh_tree(mesh, (0, 0), mt_summary_with(1, [(1, 1)]), group=1)
        state.mesh_tree(mesh, (0, 0), mt_summary_with(2, [(0, 1)]), group=2)
        state.invalidate_group(1)
        assert 2 in state.mesh_trees
        assert 1 not in state.mesh_trees

    def test_invalidate_all(self):
        state = MulticastForwardingState()
        mesh = MeshGrid(2, 2)
        state.mesh_tree(mesh, (0, 0), mt_summary_with(1, [(1, 1)]), group=1)
        state.invalidate_all()
        assert state.mesh_trees == {}
