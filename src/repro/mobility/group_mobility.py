"""Reference Point Group Mobility (RPGM).

The paper's motivating applications -- battlefield units, disaster-relief
teams, conference rooms -- move as coordinated groups.  RPGM models this:
each group has a logical centre following a random-waypoint trajectory, and
each member wanders around a reference point rigidly attached to that
centre.
"""

from __future__ import annotations

import math

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.geo.area import Area, BoundaryPolicy
from repro.geo.geometry import Point, Vector
from repro.mobility.base import MobilityModel, NodeMotionState
from repro.mobility.random_waypoint import RandomWaypointMobility


class ReferencePointGroupMobility(MobilityModel):
    """RPGM: nodes wander around moving group reference points.

    Parameters
    ----------
    groups:
        Mapping from group id to the list of member node ids.  Every node
        id passed to the model must belong to exactly one group.
    group_speed:
        Maximum speed of the group centres (their waypoint model uses
        ``[1, group_speed]``).
    member_radius:
        Maximum distance of a member's wander offset from its reference
        point.
    member_speed:
        Maximum speed at which a member chases its (moving) target point.
    """

    def __init__(
        self,
        area: Area,
        node_ids: Iterable[int],
        groups: Mapping[int, Sequence[int]],
        group_speed: float = 10.0,
        member_radius: float = 50.0,
        member_speed: float = 5.0,
        pause_time: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        node_list = list(node_ids)
        covered: List[int] = []
        for members in groups.values():
            covered.extend(members)
        if sorted(covered) != sorted(node_list):
            raise ValueError("groups must partition the node id set exactly")
        if group_speed <= 0 or member_speed <= 0 or member_radius < 0:
            raise ValueError("speeds must be positive and radius non-negative")
        self.groups = {gid: list(members) for gid, members in groups.items()}
        self.member_radius = member_radius
        self.member_speed = member_speed
        self._node_group: Dict[int, int] = {}
        for gid, members in self.groups.items():
            for node_id in members:
                self._node_group[node_id] = gid
        # The group centres follow their own random-waypoint model.
        self._centers = RandomWaypointMobility(
            area,
            list(self.groups.keys()),
            min_speed=1.0,
            max_speed=group_speed,
            pause_time=pause_time,
            seed=seed,
        )
        self._offsets: Dict[int, Vector] = {}
        super().__init__(area, node_list, seed)

    def _random_offset(self) -> Vector:
        angle = self.rng.uniform(-math.pi, math.pi)
        radius = self.rng.uniform(0.0, self.member_radius)
        return Vector(radius * math.cos(angle), radius * math.sin(angle))

    def _initial_state(self, node_id: int) -> NodeMotionState:
        gid = self._node_group[node_id]
        center = self._centers.position(gid)
        offset = self._random_offset()
        self._offsets[node_id] = offset
        position, _ = self.area.apply_boundary(
            center.translate(offset), Vector(0.0, 0.0), BoundaryPolicy.CLAMP
        )
        return NodeMotionState(position, Vector(0.0, 0.0))

    def advance(self, dt: float) -> None:
        # Move the group centres once per epoch, then the members.
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0:
            return
        self._centers.advance(dt)
        # occasionally re-draw member offsets so members mill about
        for node_id in self.node_ids:
            if self.rng.random() < min(1.0, 0.1 * dt):
                self._offsets[node_id] = self._random_offset()
        super().advance(dt)

    def _step(self, node_id: int, state: NodeMotionState, dt: float) -> NodeMotionState:
        gid = self._node_group[node_id]
        center = self._centers.position(gid)
        target = center.translate(self._offsets[node_id])
        direction = state.position.vector_to(target)
        gap = direction.magnitude
        max_step = self.member_speed * dt
        if gap <= max_step or gap == 0.0:
            new_position = target
            velocity = Vector(0.0, 0.0)
        else:
            unit = direction.normalized()
            velocity = unit.scaled(self.member_speed)
            new_position = Point(
                state.position.x + velocity.dx * dt,
                state.position.y + velocity.dy * dt,
            )
        return NodeMotionState(new_position, velocity)

