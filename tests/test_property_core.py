"""Property-based tests for the HVDB core: identifier mapping, membership
summaries, clustering prediction and fairness metrics."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.mobility_prediction import predicted_residence_time
from repro.core.identifiers import LogicalAddressSpace
from repro.core.membership import HTSummary, LocalMembership, MNTSummary, MTSummary
from repro.geo.area import Area
from repro.geo.geometry import Point, Vector, distance
from repro.geo.grid import VirtualCircleGrid
from repro.metrics.fairness import coefficient_of_variation, jain_index, peak_to_mean


# ----------------------------------------------------------------------
# identifier mapping
# ----------------------------------------------------------------------
@st.composite
def address_space(draw):
    dimension = draw(st.integers(min_value=2, max_value=6))
    block_cols = 1 << math.ceil(dimension / 2)
    block_rows = 1 << (dimension // 2)
    mesh_cols = draw(st.integers(min_value=1, max_value=3))
    mesh_rows = draw(st.integers(min_value=1, max_value=3))
    grid = VirtualCircleGrid(Area(1000.0, 800.0), block_cols * mesh_cols, block_rows * mesh_rows)
    return LogicalAddressSpace(grid, dimension)


class TestIdentifierProperties:
    @given(address_space(), st.data())
    @settings(max_examples=80)
    def test_vc_to_logical_address_roundtrip(self, space, data):
        col = data.draw(st.integers(min_value=0, max_value=space.grid.cols - 1))
        row = data.draw(st.integers(min_value=0, max_value=space.grid.rows - 1))
        address = space.address_of_vc((col, row))
        assert space.vc_of(address.hid, address.hnid) == (col, row)
        assert 0 <= address.hnid < (1 << space.dimension)
        assert 0 <= address.hid < space.hypercube_count()
        assert space.hid_of_mesh(address.mnid) == address.hid

    @given(address_space())
    @settings(max_examples=40)
    def test_hnid_bijective_within_every_block(self, space):
        coords = [(c, r) for c in range(space.grid.cols) for r in range(space.grid.rows)]
        for hid in range(space.hypercube_count()):
            hnids = [space.hnid_of(vc) for vc in coords if space.address_of_vc(vc).hid == hid]
            assert sorted(hnids) == list(range(1 << space.dimension))

    @given(address_space(), st.data())
    @settings(max_examples=80)
    def test_position_maps_to_covering_vc(self, space, data):
        x = data.draw(st.floats(min_value=0.0, max_value=999.9, allow_nan=False))
        y = data.draw(st.floats(min_value=0.0, max_value=799.9, allow_nan=False))
        address = space.address_of_vc(space.grid.coord_of(Point(x, y)))
        assert address.vc_coord in space.grid.covering_coords(Point(x, y))


# ----------------------------------------------------------------------
# membership summaries
# ----------------------------------------------------------------------
group_sets = st.sets(st.integers(min_value=1, max_value=20), max_size=6)


class TestMembershipProperties:
    @given(st.lists(group_sets, max_size=10))
    def test_mnt_summary_counts_match_reports(self, group_lists):
        reports = [LocalMembership(i, groups) for i, groups in enumerate(group_lists)]
        summary = MNTSummary.from_local_reports(0, 0, 0, reports)
        for group in summary.groups():
            expected = sum(1 for groups in group_lists if group in groups)
            assert summary.counts[group] == expected
        assert summary.member_total() == sum(len(g) for g in group_lists)

    @given(st.data())
    def test_ht_summary_merge_commutative_and_idempotent(self, data):
        # an HT-Summary merges its hypercube's MNT-Summaries: in any order,
        # any number of times, and only ever growing with more reports
        def reports(d):
            counts = d.draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=15),
                        st.dictionaries(
                            st.integers(min_value=1, max_value=5),
                            st.integers(min_value=0, max_value=3),
                            max_size=4,
                        ),
                    ),
                    max_size=6,
                )
            )
            return [MNTSummary(hnid, hnid, 0, dict(c)) for hnid, c in counts]

        a, b = reports(data), reports(data)
        ab = HTSummary.from_mnt_summaries(0, a + b)
        ba = HTSummary.from_mnt_summaries(0, b + a)
        assert ab.members_by_group == ba.members_by_group
        assert HTSummary.from_mnt_summaries(0, a + b + a).members_by_group == ab.members_by_group
        for group, hnids in HTSummary.from_mnt_summaries(0, a).members_by_group.items():
            assert hnids <= ab.members_by_group.get(group, set())

    @given(st.data())
    def test_mt_summary_reflects_latest_ht_per_mesh_node(self, data):
        mt = MTSummary()
        updates = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from([(0, 0), (1, 0), (0, 1)]),
                    st.dictionaries(
                        st.integers(min_value=1, max_value=4),
                        st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=3),
                        max_size=3,
                    ),
                ),
                max_size=12,
            )
        )
        latest = {}
        for mesh_coord, groups in updates:
            mt.update_from_ht(HTSummary(0, groups), mesh_coord)
            latest[mesh_coord] = set(groups.keys())
        for mesh_coord, groups in latest.items():
            for group in groups:
                assert mesh_coord in mt.mesh_nodes_for(group)
        # no group lists a mesh node whose latest update did not contain it
        for group, coords in mt.members_by_group.items():
            for coord in coords:
                assert group in latest.get(coord, set())


# ----------------------------------------------------------------------
# residence-time prediction
# ----------------------------------------------------------------------
class TestResidencePrediction:
    @given(
        st.floats(min_value=-200.0, max_value=200.0),
        st.floats(min_value=-200.0, max_value=200.0),
        st.floats(min_value=-15.0, max_value=15.0),
        st.floats(min_value=-15.0, max_value=15.0),
    )
    @settings(max_examples=200)
    def test_residence_time_non_negative_and_consistent(self, px, py, vx, vy):
        center = Point(0.0, 0.0)
        radius = 100.0
        position = Point(px, py)
        velocity = Vector(vx, vy)
        t = predicted_residence_time(position, velocity, center, radius)
        assert t >= 0.0
        # simulate forward: while t says we are inside, we must indeed be inside
        if 0.0 < t < 1e5 and distance(position, center) <= radius:
            mid = Point(px + vx * t * 0.5, py + vy * t * 0.5)
            assert distance(mid, center) <= radius + 1e-6
            end = Point(px + vx * t, py + vy * t)
            assert distance(end, center) <= radius + 1e-3 * (1 + abs(vx) + abs(vy))


# ----------------------------------------------------------------------
# fairness indices
# ----------------------------------------------------------------------
loads = st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50)


class TestFairnessProperties:
    @given(loads)
    def test_jain_bounds(self, values):
        j = jain_index(values)
        if values and any(v > 0 for v in values):
            assert 1.0 / len(values) - 1e-9 <= j <= 1.0 + 1e-9
        else:
            assert j == 1.0

    @given(loads, st.floats(min_value=0.1, max_value=10.0))
    def test_jain_scale_invariant(self, values, factor):
        scaled = [v * factor for v in values]
        assert abs(jain_index(values) - jain_index(scaled)) < 1e-6

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
    def test_peak_to_mean_at_least_one(self, values):
        assert peak_to_mean(values) >= 1.0 - 1e-9

    @given(st.floats(min_value=0.1, max_value=1e3), st.integers(min_value=1, max_value=30))
    def test_uniform_loads_perfectly_fair(self, value, count):
        values = [value] * count
        assert jain_index(values) > 0.999
        assert coefficient_of_variation(values) < 1e-6
        assert peak_to_mean(values) < 1.001
