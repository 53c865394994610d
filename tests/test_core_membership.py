"""Unit tests for summary-based membership update (paper Figure 5)."""

import pytest

from repro.core.membership import (
    BroadcasterCriterion,
    HTSummary,
    LocalMembership,
    MNTSummary,
    MTSummary,
    select_designated_broadcaster,
)


class TestLocalMembership:
    def test_join_leave(self):
        lm = LocalMembership(5)
        lm.join(1)
        lm.join(2)
        lm.leave(1)
        assert lm.groups == {2}

    def test_leave_nonmember_noop(self):
        lm = LocalMembership(5, {1})
        lm.leave(9)
        assert lm.groups == {1}

    def test_serialized_size_grows_with_groups(self):
        small = LocalMembership(5, {1})
        large = LocalMembership(5, {1, 2, 3, 4})
        assert large.serialized_size() > small.serialized_size()

    def test_payload(self):
        lm = LocalMembership(5, {3, 1})
        assert lm.as_payload() == {"node": 5, "groups": [1, 3]}


class TestMNTSummary:
    def test_from_local_reports_counts_members(self):
        reports = [
            LocalMembership(1, {10, 20}),
            LocalMembership(2, {10}),
            LocalMembership(3, set()),
        ]
        summary = MNTSummary.from_local_reports(99, hnid=5, hid=1, reports=reports)
        assert summary.counts == {10: 2, 20: 1}
        assert summary.groups() == {10, 20}
        assert summary.member_total() == 3

    def test_empty_reports(self):
        summary = MNTSummary.from_local_reports(99, 5, 1, [])
        assert summary.counts == {}
        assert summary.groups() == set()
        assert summary.member_total() == 0

    def test_payload_roundtrip(self):
        summary = MNTSummary(ch_node_id=7, hnid=3, hid=2, counts={1: 4, 9: 1})
        restored = MNTSummary.from_payload(summary.as_payload())
        assert restored.ch_node_id == 7
        assert restored.hnid == 3
        assert restored.hid == 2
        assert restored.counts == {1: 4, 9: 1}

    def test_serialized_size(self):
        a = MNTSummary(1, 0, 0, counts={})
        b = MNTSummary(1, 0, 0, counts={1: 1, 2: 1, 3: 1})
        assert b.serialized_size() > a.serialized_size()


class TestHTSummary:
    def test_from_mnt_summaries(self):
        summaries = [
            MNTSummary(1, hnid=0, hid=0, counts={10: 2}),
            MNTSummary(2, hnid=3, hid=0, counts={10: 1, 20: 1}),
            MNTSummary(3, hnid=5, hid=1, counts={30: 1}),   # different hypercube, ignored
        ]
        ht = HTSummary.from_mnt_summaries(0, summaries)
        assert ht.hnids_for(10) == {0, 3}
        assert ht.hnids_for(20) == {3}
        assert ht.hnids_for(30) == set()
        assert ht.groups() == {10, 20}

    def test_zero_count_groups_excluded(self):
        summaries = [MNTSummary(1, hnid=0, hid=0, counts={10: 0})]
        ht = HTSummary.from_mnt_summaries(0, summaries)
        assert ht.groups() == set()

    def test_merge_union(self):
        # an HT-Summary is the union of its hypercube's MNT-Summaries
        a = MNTSummary(1, hnid=0, hid=0, counts={1: 1})
        b = MNTSummary(2, hnid=2, hid=0, counts={1: 2})
        c = MNTSummary(3, hnid=3, hid=0, counts={1: 1, 2: 1})
        merged = HTSummary.from_mnt_summaries(0, [a, b, c])
        assert merged.hnids_for(1) == {0, 2, 3}
        assert merged.hnids_for(2) == {3}
        # building it does not touch the reports
        assert a.counts == {1: 1}

    def test_merge_is_idempotent(self):
        reports = [
            MNTSummary(1, hnid=0, hid=0, counts={1: 1}),
            MNTSummary(2, hnid=2, hid=0, counts={1: 1}),
        ]
        once = HTSummary.from_mnt_summaries(0, reports)
        twice = HTSummary.from_mnt_summaries(0, reports + reports)
        assert twice.members_by_group == once.members_by_group

    def test_merge_different_hids_rejected(self):
        # reports from another hypercube never enter its summary
        other = MNTSummary(1, hnid=0, hid=1, counts={1: 1})
        assert HTSummary.from_mnt_summaries(0, [other]).members_by_group == {}

    def test_payload_roundtrip(self):
        ht = HTSummary(2, {7: {1, 3}, 9: {0}})
        restored = HTSummary.from_payload(ht.as_payload())
        assert restored.hid == 2
        assert restored.hnids_for(7) == {1, 3}
        assert restored.hnids_for(9) == {0}

    def test_serialized_size(self):
        small = HTSummary(0, {1: {0}})
        large = HTSummary(0, {1: {0}, 2: {1}, 3: {2}})
        assert large.serialized_size() > small.serialized_size()


class TestMTSummary:
    def test_update_from_ht_adds_mesh_nodes(self):
        mt = MTSummary()
        mt.update_from_ht(HTSummary(0, {1: {0, 3}}), mesh_coord=(0, 0))
        mt.update_from_ht(HTSummary(1, {1: {5}, 2: {7}}), mesh_coord=(1, 0))
        assert mt.mesh_nodes_for(1) == {(0, 0), (1, 0)}
        assert mt.mesh_nodes_for(2) == {(1, 0)}

    def test_update_replaces_stale_entry(self):
        mt = MTSummary()
        mt.update_from_ht(HTSummary(0, {1: {0}}), mesh_coord=(0, 0))
        # a newer HT-Summary from the same hypercube no longer lists group 1
        mt.update_from_ht(HTSummary(0, {2: {3}}), mesh_coord=(0, 0))
        assert mt.mesh_nodes_for(1) == set()
        assert mt.mesh_nodes_for(2) == {(0, 0)}
        assert list(mt.members_by_group) == [2]

    def test_update_keeps_other_mesh_nodes(self):
        mt = MTSummary()
        mt.update_from_ht(HTSummary(0, {1: {0}}), mesh_coord=(0, 0))
        mt.update_from_ht(HTSummary(1, {1: {2}}), mesh_coord=(1, 0))
        mt.update_from_ht(HTSummary(0, {}), mesh_coord=(0, 0))
        assert mt.mesh_nodes_for(1) == {(1, 0)}

    def test_serialized_size(self):
        # the MT-Summary is never sent: a mesh-level update costs the
        # HT-Summary that carries it, 4 bytes plus 8 per group listed
        mt = MTSummary()
        ht = HTSummary(0, {1: {0}, 2: {1}})
        mt.update_from_ht(ht, mesh_coord=(0, 0))
        assert set(mt.members_by_group) == {1, 2}
        assert ht.serialized_size() == 4 + 8 * 2
        assert ht.serialized_size() > HTSummary(0).serialized_size()


class TestDesignatedBroadcaster:
    def summaries(self):
        return {
            0: MNTSummary(10, hnid=0, hid=0, counts={1: 1}),
            1: MNTSummary(11, hnid=1, hid=0, counts={1: 3, 2: 1}),
            3: MNTSummary(13, hnid=3, hid=0, counts={2: 2}),
        }

    def test_unknown_criterion_rejected(self):
        # the criterion is matched by identity: its string value is not one
        with pytest.raises(ValueError):
            select_designated_broadcaster(self.summaries(), BroadcasterCriterion.FIXED.value)

    def test_fixed_criterion_smallest_hnid(self):
        assert select_designated_broadcaster(self.summaries(), BroadcasterCriterion.FIXED) == 0

    def test_most_groups(self):
        assert (
            select_designated_broadcaster(self.summaries(), BroadcasterCriterion.MOST_GROUPS) == 1
        )

    def test_most_members(self):
        assert (
            select_designated_broadcaster(self.summaries(), BroadcasterCriterion.MOST_MEMBERS) == 1
        )

    def test_neighborhood_members(self):
        neighbors = {0: [1, 3], 1: [0, 3], 3: [0, 1]}
        # every CH sees the same totals here, so the smallest HNID wins the tie;
        # with an asymmetric neighbourhood the criterion differentiates
        assert (
            select_designated_broadcaster(
                self.summaries(), BroadcasterCriterion.NEIGHBORHOOD_MEMBERS, neighbors
            )
            == 0
        )
        sparse_neighbors = {0: [], 1: [3], 3: [1]}
        assert (
            select_designated_broadcaster(
                self.summaries(), BroadcasterCriterion.NEIGHBORHOOD_MEMBERS, sparse_neighbors
            )
            == 1
        )

    def test_neighborhood_requires_neighbor_map(self):
        with pytest.raises(ValueError):
            select_designated_broadcaster(
                self.summaries(), BroadcasterCriterion.NEIGHBORHOOD_MEMBERS
            )

    def test_empty_summaries(self):
        assert select_designated_broadcaster({}, BroadcasterCriterion.FIXED) is None

    def test_deterministic_tiebreak(self):
        summaries = {
            2: MNTSummary(1, hnid=2, hid=0, counts={1: 1}),
            5: MNTSummary(2, hnid=5, hid=0, counts={2: 1}),
        }
        assert (
            select_designated_broadcaster(summaries, BroadcasterCriterion.MOST_MEMBERS) == 2
        )
