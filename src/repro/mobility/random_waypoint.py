"""Random Waypoint mobility.

The de-facto standard model for MANET protocol evaluation: each node picks
a uniformly random destination in the area, travels towards it in a
straight line at a speed drawn uniformly from ``[min_speed, max_speed]``,
pauses for ``pause_time`` seconds on arrival, then repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot
from typing import Dict, Iterable, Optional

from repro.geo.area import Area
from repro.geo.geometry import Point, Vector
from repro.mobility.base import MobilityModel, NodeMotionState


@dataclass
class _WaypointState:
    destination: Point
    speed: float
    pause_remaining: float


class RandomWaypointMobility(MobilityModel):
    """Classic random waypoint model.

    Parameters
    ----------
    min_speed, max_speed:
        Speed range in m/s.  ``min_speed`` should be kept strictly positive
        to avoid the well-known speed-decay degeneracy of the model.
    pause_time:
        Pause duration at each waypoint, seconds.
    """

    def __init__(
        self,
        area: Area,
        node_ids: Iterable[int],
        min_speed: float = 1.0,
        max_speed: float = 10.0,
        pause_time: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError("require 0 < min_speed <= max_speed")
        if pause_time < 0:
            raise ValueError("pause_time must be non-negative")
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_time = pause_time
        self._trips: Dict[int, _WaypointState] = {}
        super().__init__(area, node_ids, seed)

    def _new_trip(self, origin: Point) -> _WaypointState:
        destination = self._uniform_position()
        speed = self.rng.uniform(self.min_speed, self.max_speed)
        return _WaypointState(destination, speed, 0.0)

    def _initial_state(self, node_id: int) -> NodeMotionState:
        position = self._uniform_position()
        trip = self._new_trip(position)
        self._trips[node_id] = trip
        velocity = _velocity_towards(position, trip.destination, trip.speed)
        return NodeMotionState(position, velocity)

    def _step(self, node_id: int, state: NodeMotionState, dt: float) -> NodeMotionState:
        # the gap to the waypoint and a partial leg in plain floats: one
        # hypot serves both, with no intermediate Points or Vectors
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
            px, py = position.x, position.y
            destination = trip.destination
            tx, ty = destination.x, destination.y
            gap = hypot(px - tx, py - ty)
            step = trip.speed * remaining
            if step < gap:
                frac = step / gap
                position = Point(px + (tx - px) * frac, py + (ty - py) * frac)
                remaining = 0.0
            else:
                # arrive and start pausing
                time_to_arrive = gap / trip.speed if trip.speed > 0 else 0.0
                position = destination
                remaining -= time_to_arrive
                trip.pause_remaining = self.pause_time
                if self.pause_time == 0.0:
                    trip = self._new_trip(position)
                    self._trips[node_id] = trip
        if trip.pause_remaining > 0:
            return NodeMotionState(position, Vector(0.0, 0.0))
        return NodeMotionState(position, _velocity_towards(position, trip.destination, trip.speed))


def _velocity_towards(origin: Point, target: Point, speed: float) -> Vector:
    # origin.vector_to(target).normalized().scaled(speed), written out
    dx = target.x - origin.x
    dy = target.y - origin.y
    mag = hypot(dx, dy)
    if mag == 0.0:
        return Vector(0.0, 0.0)
    return Vector(dx / mag * speed, dy / mag * speed)
