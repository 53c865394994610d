"""Property-based tests for mobility, the event engine and the geo grid."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.area import Area, BoundaryPolicy
from repro.geo.geometry import Point, Vector
from repro.geo.grid import VirtualCircleGrid
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.simulation.engine import Simulator


class TestAreaProperties:
    @given(
        st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
        st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
        st.sampled_from(list(BoundaryPolicy)),
    )
    def test_boundary_policy_always_returns_point_inside(self, x, y, policy):
        area = Area(1000.0, 700.0)
        point, _ = area.apply_boundary(Point(x, y), Vector(1.0, -2.0), policy)
        assert area.contains(point)

    @given(st.floats(min_value=0.0, max_value=1000.0), st.floats(min_value=0.0, max_value=700.0))
    def test_inside_points_unchanged(self, x, y):
        area = Area(1000.0, 700.0)
        for policy in BoundaryPolicy:
            point, velocity = area.apply_boundary(Point(x, y), Vector(3.0, 4.0), policy)
            assert point == Point(x, y)
            assert velocity == Vector(3.0, 4.0)


class TestGridProperties:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_home_circle_always_covers_point(self, cols, rows, fx, fy):
        area = Area(900.0, 600.0)
        grid = VirtualCircleGrid(area, cols, rows)
        point = Point(fx * area.width, fy * area.height)
        coord = grid.coord_of(point)
        assert 0 <= coord[0] < cols and 0 <= coord[1] < rows
        assert coord in grid.covering_coords(point)


class TestMobilityProperties:
    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.5, max_value=20.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_nodes_never_leave_area(self, n_nodes, speed, seed):
        area = Area(500.0, 400.0)
        ids = list(range(n_nodes))
        model = RandomWaypointMobility(area, ids, min_speed=0.5, max_speed=speed, seed=seed)
        for _ in range(30):
            model.advance(1.0)
        for node_id in ids:
            assert area.contains(model.position(node_id))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_trajectories(self, seed):
        area = Area(500.0, 500.0)
        a = RandomWaypointMobility(area, range(5), seed=seed)
        b = RandomWaypointMobility(area, range(5), seed=seed)
        for _ in range(20):
            a.advance(1.0)
            b.advance(1.0)
        assert all(a.position(i) == b.position(i) for i in range(5))


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40))
    def test_events_always_execute_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run_until(200.0)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=50.0), st.booleans()), max_size=30
        )
    )
    def test_cancelled_events_never_fire(self, entries):
        sim = Simulator()
        fired = []
        expected = 0
        for delay, cancel in entries:
            event = sim.schedule(delay, lambda d=delay: fired.append(d))
            if cancel:
                event.cancel()
            else:
                expected += 1
        sim.run_until(100.0)
        assert len(fired) == expected


class TestPhyProperties:
    """Physical-layer invariants (see docs/physical-layer.md)."""

    @given(
        st.floats(min_value=-95.0, max_value=0.0),
        st.lists(st.floats(min_value=-120.0, max_value=-40.0), max_size=8),
        st.floats(min_value=-120.0, max_value=-60.0),
    )
    def test_sinr_non_increasing_as_interferers_added(
        self, signal, interferers, extra
    ):
        from repro.simulation.phy import sinr_db

        noise = -100.0
        without = sinr_db(signal, interferers, noise)
        with_extra = sinr_db(signal, interferers + [extra], noise)
        assert with_extra <= without + 1e-9

    @given(
        st.sampled_from(["unit_disk", "log_distance", "sinr"]),
        st.floats(min_value=0.0, max_value=800.0),
        st.floats(min_value=0.0, max_value=800.0),
        st.floats(min_value=0.0, max_value=800.0),
        st.floats(min_value=0.0, max_value=800.0),
    )
    def test_reception_probability_in_unit_interval(self, radio, ax, ay, bx, by):
        from repro.geo.geometry import Point
        from repro.registry import RADIOS

        model = RADIOS.get(radio)(None)
        p = model.reception_probability(Point(ax, ay), Point(bx, by))
        assert 0.0 <= p <= 1.0

    @given(
        st.integers(min_value=1, max_value=4000),
        st.integers(min_value=1, max_value=4000),
        st.floats(min_value=1e4, max_value=1e8),
        st.floats(min_value=1e4, max_value=1e8),
    )
    def test_airtime_monotone_in_size_and_bitrate(self, s1, s2, b1, b2):
        from repro.simulation.phy import CsmaCaMac, CsmaCaMacConfig

        small, large = sorted((s1, s2))
        slow, fast = sorted((b1, b2))
        if small != large:
            mac = CsmaCaMac(CsmaCaMacConfig(bitrate_bps=slow))
            assert mac.airtime(large) > mac.airtime(small)
        if slow != fast:
            slow_mac = CsmaCaMac(CsmaCaMacConfig(bitrate_bps=slow))
            fast_mac = CsmaCaMac(CsmaCaMacConfig(bitrate_bps=fast))
            assert fast_mac.airtime(s1) < slow_mac.airtime(s1)

    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=0.5, max_value=5.0),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.5),
                st.integers(min_value=64, max_value=2048),
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_duty_cycle_budget_never_exceeded_over_any_window(
        self, duty, window, arrivals, seed
    ):
        from repro.simulation.phy import CsmaCaMac, CsmaCaMacConfig

        mac = CsmaCaMac(
            CsmaCaMacConfig(duty_cycle=duty, duty_cycle_window=window)
        )
        rng = random.Random(seed)
        now = 0.0
        grants = []  # (start, airtime) of every admitted frame
        for gap, size in arrivals:
            now += gap
            plan = mac.plan_transmission(0, now, size, contenders=2, rng=rng)
            if plan.proceed:
                grants.append((now, plan.airtime))
        budget = duty * window + 1e-9
        # airtime started within (t - window, t] never exceeds the budget,
        # for t at every grant instant (the extremal window endpoints)
        for t, _ in grants:
            used = sum(a for s, a in grants if t - window < s <= t)
            assert used <= budget

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_backoff_bounded_by_max_stage(self, contenders, stage, cw_min, seed):
        from repro.simulation.phy import CsmaCaMac, CsmaCaMacConfig

        config = CsmaCaMacConfig(cw_min=cw_min, max_backoff_stage=stage)
        mac = CsmaCaMac(config)
        cw = mac.contention_window(contenders)
        assert cw_min <= cw <= cw_min << stage
        rng = random.Random(seed)
        plan = mac.plan_transmission(0, 0.0, 512, contenders, rng)
        assert plan.proceed
        max_delay = (
            config.base_latency
            + config.difs
            + (cw - 1) * config.slot_time
            + mac.airtime(512)
        )
        assert config.base_latency + config.difs <= plan.delay <= max_delay + 1e-12
