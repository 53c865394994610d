"""Unit tests for the HVDB model construction (paper Figure 1 / Section 3)."""

import pytest

from repro.clustering.service import ClusterSnapshot
from repro.core.hvdb import ClusterHeadRole, HVDBModel
from repro.core.identifiers import LogicalAddressSpace
from repro.geo.area import Area
from repro.geo.geometry import Point
from repro.geo.grid import VirtualCircleGrid


def make_space(cols=8, rows=8, dimension=4):
    return LogicalAddressSpace(VirtualCircleGrid(Area(1000.0, 1000.0), cols, rows), dimension)


def snapshot_from_heads(heads):
    """Build a minimal ClusterSnapshot: one CH per listed VC."""
    return ClusterSnapshot(
        time=0.0,
        heads=dict(heads),
        members={coord: {ch} for coord, ch in heads.items()},
        node_home={ch: coord for coord, ch in heads.items()},
    )


class TestModelConstruction:
    def test_full_backbone(self):
        space = make_space()
        heads = {}
        ch = 0
        for col in range(8):
            for row in range(8):
                heads[(col, row)] = ch
                ch += 1
        model = HVDBModel(space, snapshot_from_heads(heads))
        assert len(model.cluster_heads()) == 64
        assert model.actual_hypercube_ids() == [0, 1, 2, 3]
        for hid in range(4):
            cube = model.hypercube(hid)
            assert len(cube) == 16
            assert cube.is_connected()
        assert len(model.mesh()) == 4
        assert len(model.mesh().shortest_path((0, 0), (1, 1))) == 3

    def test_partial_backbone(self):
        space = make_space()
        heads = {(0, 0): 10, (1, 0): 11, (5, 5): 12}
        model = HVDBModel(space, snapshot_from_heads(heads))
        assert model.cluster_heads() == [10, 11, 12]
        assert sorted(model.actual_hypercube_ids()) == [0, 3]
        assert len(model.hypercube(0)) == 2
        assert len(model.hypercube(1)) == 0
        assert len(model.mesh()) == 2

    def test_empty_backbone(self):
        space = make_space()
        model = HVDBModel(space, snapshot_from_heads({}))
        assert model.cluster_heads() == []
        assert model.actual_hypercube_ids() == []
        assert len(model.mesh()) == 0

    def test_chid_hnid_one_to_one(self):
        space = make_space()
        heads = {(0, 0): 10, (1, 0): 11, (2, 1): 12}
        model = HVDBModel(space, snapshot_from_heads(heads))
        seen_hnids = set()
        for ch in model.cluster_heads():
            address = model.address_of_ch(ch)
            assert model.chid_at(address.hid, address.hnid) == ch
            seen_hnids.add((address.hid, address.hnid))
        assert len(seen_hnids) == 3

    def test_is_cluster_head_and_vc_roundtrip(self):
        space = make_space()
        heads = {(3, 4): 77}
        model = HVDBModel(space, snapshot_from_heads(heads))
        assert model.is_cluster_head(77)
        assert not model.is_cluster_head(1)
        address = model.address_of_ch(77)
        assert address.vc_coord == (3, 4)
        assert model.chid_at(address.hid, address.hnid) == 77

    def test_address_of_non_ch_raises(self):
        space = make_space()
        model = HVDBModel(space, snapshot_from_heads({(0, 0): 1}))
        with pytest.raises(KeyError):
            model.address_of_ch(99)


class TestRoles:
    def test_border_and_inner_classification(self):
        space = make_space()
        heads = {(1, 1): 1, (3, 1): 2, (4, 1): 3}
        model = HVDBModel(space, snapshot_from_heads(heads))
        assert model.role_of(1) is ClusterHeadRole.INNER
        assert model.role_of(2) is ClusterHeadRole.BORDER
        assert model.role_of(3) is ClusterHeadRole.BORDER
        assert model.role_of(42) is ClusterHeadRole.NOT_CLUSTER_HEAD
        assert model.border_cluster_heads() == [2, 3]
        assert model.inner_cluster_heads() == [1]

    def test_role_filters_by_hypercube(self):
        space = make_space()
        heads = {(3, 1): 2, (4, 1): 3}
        model = HVDBModel(space, snapshot_from_heads(heads))
        assert model.border_cluster_heads(hid=0) == [2]
        assert model.border_cluster_heads(hid=1) == [3]


class TestLogicalNeighbors:
    def test_logical_neighbors_are_hypercube_adjacent_chs(self):
        space = make_space()
        # VCs (0,0)=HNID 0000, (1,0)=0001, (0,1)=0010, (1,1)=0011 in hypercube 0
        heads = {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4}
        model = HVDBModel(space, snapshot_from_heads(heads))
        assert sorted(model.logical_neighbors_of_ch(1)) == [2, 3]
        assert sorted(model.logical_neighbors_of_ch(4)) == [2, 3]

    def test_no_neighbors_when_alone(self):
        space = make_space()
        model = HVDBModel(space, snapshot_from_heads({(0, 0): 1}))
        assert model.logical_neighbors_of_ch(1) == []

    def test_chs_in_hypercube(self):
        space = make_space()
        heads = {(0, 0): 1, (1, 0): 2, (4, 0): 3}
        model = HVDBModel(space, snapshot_from_heads(heads))
        assert model.chs_in_hypercube(0) == [1, 2]
        assert model.chs_in_hypercube(1) == [3]
        assert model.chs_in_hypercube(2) == []


class TestEntryCh:
    def test_entry_prefers_border_ch_closest_to_reference(self):
        space = make_space()
        heads = {(4, 0): 10, (7, 0): 11, (5, 1): 12}
        # hid 1 spans VC columns 4-7; (4,0) and... (7,0) faces no block to the
        # east so only (4,0) is a border VC; (5,1) is inner.
        model = HVDBModel(space, snapshot_from_heads(heads))
        entry = model.entry_ch(1, towards=Point(0.0, 0.0))
        assert entry == 10

    def test_entry_falls_back_to_any_ch(self):
        space = make_space()
        heads = {(5, 1): 12}
        model = HVDBModel(space, snapshot_from_heads(heads))
        assert model.entry_ch(1) == 12

    def test_entry_none_for_empty_hypercube(self):
        space = make_space()
        model = HVDBModel(space, snapshot_from_heads({(0, 0): 1}))
        assert model.entry_ch(3) is None


class TestBackboneSummary:
    def test_summary_fields(self):
        space = make_space()
        heads = {(0, 0): 1, (1, 0): 2, (4, 4): 3}
        model = HVDBModel(space, snapshot_from_heads(heads))
        summary = model.backbone_summary()
        assert summary["cluster_heads"] == 3.0
        assert summary["actual_hypercubes"] == 2.0
        assert summary["possible_hypercubes"] == 4.0
        assert 0.0 < summary["hypercube_occupancy"] < 1.0
        assert summary["mesh_nodes"] == 2.0
        assert summary["connected_hypercube_fraction"] == 1.0
