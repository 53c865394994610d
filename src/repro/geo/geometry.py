"""2-D geometric primitives.

All positions in the simulator are expressed as :class:`Point` instances in
metres on a Euclidean plane.  Velocities and displacements are
:class:`Vector` instances in metres / metres-per-second.  Both types are
immutable so they can be shared safely between the mobility models, the
neighbour table and the clustering layer without defensive copies: a
mobility tick keeps an in-area state as its model returned it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Point:
    """A point on the 2-D plane, in metres."""

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def translate(self, vector: "Vector") -> "Point":
        """Return the point displaced by ``vector``."""
        return Point(self.x + vector.dx, self.y + vector.dy)

    def vector_to(self, other: "Point") -> "Vector":
        """Return the displacement vector from this point to ``other``."""
        return Vector(other.x - self.x, other.y - self.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(other.x - self.x, other.y - self.y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Point({self.x:.2f}, {self.y:.2f})"


@dataclass(frozen=True, slots=True)
class Vector:
    """A displacement or velocity on the 2-D plane."""

    dx: float
    dy: float

    def __iter__(self) -> Iterator[float]:
        yield self.dx
        yield self.dy

    @property
    def magnitude(self) -> float:
        return math.hypot(self.dx, self.dy)

    def scaled(self, factor: float) -> "Vector":
        return Vector(self.dx * factor, self.dy * factor)

    def normalized(self) -> "Vector":
        """Return a unit vector with the same heading.

        The zero vector normalises to itself (there is no meaningful
        heading to preserve).
        """
        mag = self.magnitude
        if mag == 0.0:
            return Vector(0.0, 0.0)
        return Vector(self.dx / mag, self.dy / mag)

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(self.dx + other.dx, self.dy + other.dy)

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(self.dx - other.dx, self.dy - other.dy)

    def __neg__(self) -> "Vector":
        return Vector(-self.dx, -self.dy)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vector({self.dx:.2f}, {self.dy:.2f})"


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)
