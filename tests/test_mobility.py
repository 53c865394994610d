"""Unit tests for the mobility models."""

import dataclasses
import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import ScenarioConfig
from repro.geo import geometry
from repro.geo.area import Area, BoundaryPolicy
from repro.geo.geometry import Point, Vector
from repro.mobility.base import MobilityModel, NodeMotionState
from repro.mobility.group_mobility import ReferencePointGroupMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.static import StaticMobility
from repro.registry import MOBILITY_MODELS

AREA = Area(1000.0, 1000.0)
NODE_IDS = list(range(20))


class TestStatic:
    def test_nodes_never_move(self):
        model = StaticMobility(AREA, NODE_IDS, seed=1)
        before = {n: model.position(n) for n in NODE_IDS}
        model.advance(100.0)
        after = {n: model.position(n) for n in NODE_IDS}
        assert before == after

    def test_explicit_positions(self):
        model = StaticMobility(AREA, [0, 1], positions={0: Point(10.0, 20.0)}, seed=1)
        assert model.position(0) == Point(10.0, 20.0)
        assert AREA.contains(model.position(1))

    def test_explicit_position_outside_area_rejected(self):
        with pytest.raises(ValueError):
            StaticMobility(AREA, [0], positions={0: Point(-5.0, 0.0)})

    def test_velocity_zero(self):
        model = StaticMobility(AREA, [0], seed=1)
        assert model.velocity(0).magnitude == 0.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            StaticMobility(AREA, [1, 1])

    def test_set_position(self):
        # a node is placed through ``positions``; a place outside the area is refused
        model = StaticMobility(AREA, [0], positions={0: Point(500.0, 500.0)}, seed=1)
        assert model.position(0) == Point(500.0, 500.0)
        model.advance(10.0)
        assert model.position(0) == Point(500.0, 500.0)
        with pytest.raises(ValueError):
            StaticMobility(AREA, [0], positions={0: Point(5000.0, 0.0)}, seed=1)

    def test_negative_dt_rejected(self):
        model = StaticMobility(AREA, [0], seed=1)
        with pytest.raises(ValueError):
            model.advance(-1.0)


class TestRandomWaypoint:
    def test_positions_stay_inside_area(self):
        model = RandomWaypointMobility(AREA, NODE_IDS, min_speed=1.0, max_speed=20.0, seed=3)
        for _ in range(200):
            model.advance(1.0)
            for n in NODE_IDS:
                assert AREA.contains(model.position(n))

    def test_nodes_actually_move(self):
        model = RandomWaypointMobility(AREA, NODE_IDS, min_speed=5.0, max_speed=10.0, seed=4)
        before = {n: model.position(n) for n in NODE_IDS}
        model.advance(10.0)
        moved = sum(1 for n in NODE_IDS if geometry.distance(before[n], model.position(n)) > 1.0)
        assert moved == len(NODE_IDS)

    def test_speed_respects_bounds(self):
        model = RandomWaypointMobility(AREA, NODE_IDS, min_speed=2.0, max_speed=4.0, seed=5)
        before = {n: model.position(n) for n in NODE_IDS}
        dt = 1.0
        model.advance(dt)
        for n in NODE_IDS:
            travelled = geometry.distance(before[n], model.position(n))
            assert travelled <= 4.0 * dt + 1e-6

    def test_pause_keeps_node_at_waypoint(self):
        model = RandomWaypointMobility(
            Area(50.0, 50.0), [0], min_speed=10.0, max_speed=10.0, pause_time=1e9, seed=6
        )
        # after enough time the node reaches its first waypoint and pauses forever
        for _ in range(100):
            model.advance(1.0)
        p1 = model.position(0)
        model.advance(10.0)
        assert model.position(0) == p1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility(AREA, [0], min_speed=0.0, max_speed=5.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(AREA, [0], min_speed=5.0, max_speed=2.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(AREA, [0], pause_time=-1.0)

    def test_deterministic_with_seed(self):
        a = RandomWaypointMobility(AREA, NODE_IDS, seed=42)
        b = RandomWaypointMobility(AREA, NODE_IDS, seed=42)
        for _ in range(10):
            a.advance(1.0)
            b.advance(1.0)
        assert all(a.position(n) == b.position(n) for n in NODE_IDS)


@pytest.mark.parametrize("name", ["random_waypoint"])
def test_registered_model_slower_than_the_speed_floor_moves_at_max_speed(name):
    config = ScenarioConfig(area_size=1000.0, max_speed=0.25, pause_time=0.0, seed=3)
    model = MOBILITY_MODELS.get(name)(config, NODE_IDS)
    assert model.min_speed == model.max_speed == 0.25
    before = {n: model.position(n) for n in NODE_IDS}
    model.advance(1.0)
    for n in NODE_IDS:
        assert geometry.distance(before[n], model.position(n)) == pytest.approx(0.25)


class TestGroupMobility:
    def make_model(self, seed=12):
        groups = {0: [0, 1, 2, 3, 4], 1: [5, 6, 7, 8, 9]}
        return ReferencePointGroupMobility(
            AREA, range(10), groups, group_speed=8.0, member_radius=60.0, member_speed=6.0, seed=seed
        )

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            ReferencePointGroupMobility(AREA, range(10), {0: [0, 1, 2]})

    def test_invalid_speeds_rejected(self):
        groups = {0: [0, 1]}
        for bad in (dict(group_speed=0.0), dict(member_speed=-1.0), dict(member_radius=-5.0)):
            with pytest.raises(ValueError):
                ReferencePointGroupMobility(AREA, [0, 1], groups, **bad)

    def test_negative_dt_rejected_and_zero_dt_moves_nothing(self):
        model = self.make_model()
        before = [model.position(n) for n in range(10)]
        rng_state = model.rng.getstate()
        model.advance(0.0)
        assert [model.position(n) for n in range(10)] == before
        assert model.rng.getstate() == rng_state
        with pytest.raises(ValueError):
            model.advance(-1.0)

    def test_group_of(self):
        model = self.make_model()
        assert [gid for gid, members in model.groups.items() if 3 in members] == [0]
        assert [gid for gid, members in model.groups.items() if 7 in members] == [1]

    def test_members_stay_near_group_center(self):
        model = self.make_model()
        for _ in range(100):
            model.advance(1.0)
        for gid, members in model.groups.items():
            center = model._centers.position(gid)
            for node_id in members:
                # allow slack: the member chases a moving target
                assert geometry.distance(model.position(node_id), center) < 200.0

    def test_groups_are_spatially_coherent(self):
        model = self.make_model(seed=13)
        for _ in range(50):
            model.advance(1.0)
        # within-group spread should be well below the area diagonal
        for gid, members in model.groups.items():
            positions = [model.position(n) for n in members]
            spread = max(
                geometry.distance(a, b) for a in positions for b in positions
            )
            assert spread < 500.0

    def test_positions_inside_area(self):
        model = self.make_model(seed=14)
        for _ in range(100):
            model.advance(1.0)
            for n in range(10):
                assert AREA.contains(model.position(n))


# ---------------------------------------------------------------------------
# The tick as it was before random waypoint's step was written out and an
# in-area state was kept: MobilityModel.advance, RandomWaypointMobility._step,
# random_waypoint._velocity_towards and geometry.distance / move_towards,
# verbatim.
# ---------------------------------------------------------------------------


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def move_towards(origin: Point, target: Point, max_step: float) -> Point:
    """Move from ``origin`` towards ``target`` by at most ``max_step`` metres.

    If the target is closer than ``max_step`` the target itself is
    returned, so repeated calls converge exactly.
    """
    if max_step < 0:
        raise ValueError("max_step must be non-negative")
    gap = distance(origin, target)
    if gap <= max_step or gap == 0.0:
        return target
    frac = max_step / gap
    return Point(origin.x + (target.x - origin.x) * frac,
                 origin.y + (target.y - origin.y) * frac)


def _velocity_towards(origin: Point, target: Point, speed: float) -> Vector:
    direction = origin.vector_to(target).normalized()
    return direction.scaled(speed)


class ReferenceTick:
    """Holder of the two reference methods, patched in by :func:`reference_tick`."""

    def advance(self, dt: float) -> None:
        """Advance every node by ``dt`` seconds."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0:
            return
        for node_id in self.node_ids:
            new_state = self._step(node_id, self._states[node_id], dt)
            position, velocity = self.area.apply_boundary(
                new_state.position, new_state.velocity, self.boundary_policy
            )
            self._states[node_id] = NodeMotionState(position, velocity)

    def _step(self, node_id: int, state: NodeMotionState, dt: float) -> NodeMotionState:
        trip = self._trips[node_id]
        position = state.position
        remaining = dt
        while remaining > 1e-12:
            if trip.pause_remaining > 0:
                consumed = min(trip.pause_remaining, remaining)
                trip.pause_remaining -= consumed
                remaining -= consumed
                if trip.pause_remaining > 0:
                    return NodeMotionState(position, Vector(0.0, 0.0))
                trip = self._new_trip(position)
                self._trips[node_id] = trip
                continue
            gap = distance(position, trip.destination)
            step = trip.speed * remaining
            if step < gap:
                position = move_towards(position, trip.destination, step)
                remaining = 0.0
            else:
                # arrive and start pausing
                time_to_arrive = gap / trip.speed if trip.speed > 0 else 0.0
                position = trip.destination
                remaining -= time_to_arrive
                trip.pause_remaining = self.pause_time
                if self.pause_time == 0.0:
                    trip = self._new_trip(position)
                    self._trips[node_id] = trip
        velocity = (
            Vector(0.0, 0.0)
            if trip.pause_remaining > 0
            else _velocity_towards(position, trip.destination, trip.speed)
        )
        return NodeMotionState(position, velocity)


@contextmanager
def reference_tick():
    """Run every model's tick (RPGM's centres included) on the reference code."""
    saved = MobilityModel.advance, RandomWaypointMobility._step
    MobilityModel.advance = ReferenceTick.advance
    RandomWaypointMobility._step = ReferenceTick._step
    try:
        yield
    finally:
        MobilityModel.advance, RandomWaypointMobility._step = saved


def tick_snapshot(model):
    """Everything a tick may change; states and points compare their
    floats with ``==``."""
    trips = getattr(model, "_trips", {})
    centers = getattr(model, "_centers", None)
    return (
        [model._states[n] for n in model.node_ids],
        model.rng.getstate(),
        {n: (t.destination, t.speed, t.pause_remaining) for n, t in trips.items()},
        tick_snapshot(centers) if centers is not None else None,
    )


def build_model(kind, area_size, max_speed, pause_time, seed, n_nodes):
    ids = list(range(n_nodes))
    if kind == "rpgm":
        groups = {g: ids[g::2] for g in range(min(2, n_nodes))}
        return ReferencePointGroupMobility(
            Area(area_size, area_size),
            ids,
            groups,
            group_speed=max(1.0, max_speed),
            member_radius=area_size / 2.0,
            member_speed=max(0.5, max_speed),
            pause_time=pause_time,
            seed=seed,
        )
    if kind == "static_class":
        return StaticMobility(Area(area_size, area_size), ids, seed=seed)
    config = ScenarioConfig(
        area_size=area_size, max_speed=max_speed, pause_time=pause_time, seed=seed
    )
    return MOBILITY_MODELS.get(kind)(config, ids)


class TestAdvanceMatchesReference:
    """The tick stores the same floats, draws the same randoms and keeps the
    same waypoint trips as the reference copy above, for every registered
    model, RPGM and static placement, under every boundary policy."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(MOBILITY_MODELS.names() + ["rpgm", "static_class"]),
        policy=st.sampled_from(list(BoundaryPolicy)),
        # small areas, so RPGM steps leave them; a large one, so most
        # waypoint steps end mid-leg
        area_size=st.sampled_from([20.0, 60.0, 150.0, 1000.0]),
        # 0 degrades the moving factories to static; below 0.5 their speed
        # floor is max_speed itself, so every node moves at max_speed
        max_speed=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=40.0)),
        pause_time=st.sampled_from([0.0, 0.5, 2.0, 5.0]),
        seed=st.integers(min_value=0, max_value=10_000),
        n_nodes=st.integers(min_value=1, max_value=8),
        # (node index, x and y as fractions of the side): nodes placed on
        # edges and corners
        placed=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.sampled_from([0.0, 0.5, 1.0]),
                st.sampled_from([0.0, 0.5, 1.0]),
            ),
            max_size=4,
        ),
        dts=st.lists(st.sampled_from([0.25, 1.0, 7.3]), min_size=1, max_size=8),
    )
    def test_advance_matches_reference(
        self, kind, policy, area_size, max_speed, pause_time, seed, n_nodes, placed, dts
    ):
        model = build_model(kind, area_size, max_speed, pause_time, seed, n_nodes)
        reference = build_model(kind, area_size, max_speed, pause_time, seed, n_nodes)
        for m in (model, reference):
            m.boundary_policy = policy
            for index, fx, fy in placed:
                if index < n_nodes:
                    m._states[index] = dataclasses.replace(
                        m._states[index], position=Point(fx * area_size, fy * area_size)
                    )
        assert tick_snapshot(model) == tick_snapshot(reference)
        for dt in dts:
            model.advance(dt)
            with reference_tick():
                reference.advance(dt)
            assert tick_snapshot(model) == tick_snapshot(reference), dt
