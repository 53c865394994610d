"""Rectangular deployment area with boundary policies.

Every scenario deploys its mobile nodes inside an axis-aligned rectangle.
Mobility models delegate boundary handling to :class:`Area` so that the
same model can be run with reflecting, wrapping (torus) or clamping
boundaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.geo.geometry import Point, Vector


class BoundaryPolicy(enum.Enum):
    """How a position outside the area is brought back inside."""

    CLAMP = "clamp"      #: snap to the nearest border point
    WRAP = "wrap"        #: torus topology
    REFLECT = "reflect"  #: mirror off the border (billiard reflection)


@dataclass(frozen=True, slots=True)
class Area:
    """An axis-aligned rectangular deployment area ``[0,width] x [0,height]``."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("area dimensions must be positive")

    def contains(self, point: Point) -> bool:
        return 0.0 <= point.x <= self.width and 0.0 <= point.y <= self.height

    def random_point(self, rng) -> Point:
        """Draw a uniformly random point from the area using ``rng``.

        ``rng`` is a :class:`random.Random`-compatible generator
        (only ``uniform`` is required).
        """
        return Point(rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))

    # ------------------------------------------------------------------
    # boundary handling
    # ------------------------------------------------------------------
    def apply_boundary(
        self, point: Point, velocity: Vector, policy: BoundaryPolicy
    ) -> Tuple[Point, Vector]:
        """Return the in-area position (and possibly adjusted velocity).

        The velocity is only modified by :data:`BoundaryPolicy.REFLECT`,
        which flips the velocity component orthogonal to the border that
        was crossed.
        """
        if self.contains(point):
            return point, velocity
        if policy is BoundaryPolicy.CLAMP:
            return (
                Point(
                    min(max(point.x, 0.0), self.width),
                    min(max(point.y, 0.0), self.height),
                ),
                velocity,
            )
        if policy is BoundaryPolicy.WRAP:
            return Point(point.x % self.width, point.y % self.height), velocity
        if policy is BoundaryPolicy.REFLECT:
            x, y = point.x, point.y
            dx, dy = velocity.dx, velocity.dy
            x, dx = _reflect_axis(x, dx, self.width)
            y, dy = _reflect_axis(y, dy, self.height)
            return Point(x, y), Vector(dx, dy)
        raise ValueError(f"unknown boundary policy: {policy!r}")


def _reflect_axis(coord: float, vel: float, limit: float) -> Tuple[float, float]:
    """Reflect a single coordinate into ``[0, limit]``.

    Handles positions that overshoot by more than one area length by
    reflecting repeatedly (billiard dynamics on the segment).
    """
    while not (0.0 <= coord <= limit):
        if coord < 0.0:
            coord = -coord
            vel = -vel
        elif coord > limit:
            coord = 2.0 * limit - coord
            vel = -vel
    return coord, vel
