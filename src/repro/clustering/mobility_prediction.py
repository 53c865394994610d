"""Mobility prediction: how long will a node stay inside its virtual circle?

The CH election criterion (1) of the paper is "the highest probability ...
to stay for longer time within the cluster".  With position and velocity
known (GPS assumption), the natural estimator is the time until the node's
straight-line extrapolation crosses the circle boundary.
"""

from __future__ import annotations

import math

from repro.geo.geometry import Point, Vector

#: Residence time reported for a node that is not moving (effectively "stays
#: forever"); kept finite so comparisons and averaging stay well-behaved.
STATIONARY_RESIDENCE_TIME = 1e6


def predicted_residence_time(
    position: Point, velocity: Vector, center: Point, radius: float
) -> float:
    """Predicted time (seconds) until the node exits the circle.

    Solves ``|position + velocity * t - center| = radius`` for the smallest
    non-negative ``t``.  Returns :data:`STATIONARY_RESIDENCE_TIME` when the
    node is (nearly) stationary, and ``0.0`` when the node is already
    outside the circle and moving away (it contributes no stability to this
    cluster).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rel = Vector(position.x - center.x, position.y - center.y)
    speed_sq = velocity.dx * velocity.dx + velocity.dy * velocity.dy
    dist_sq = rel.dx * rel.dx + rel.dy * rel.dy
    outside = dist_sq > radius * radius

    if speed_sq < 1e-12:
        return 0.0 if outside else STATIONARY_RESIDENCE_TIME

    # |rel + v t|^2 = r^2  ->  (v.v) t^2 + 2 (rel.v) t + (rel.rel - r^2) = 0
    a = speed_sq
    b = 2.0 * (rel.dx * velocity.dx + rel.dy * velocity.dy)
    c = dist_sq - radius * radius
    disc = b * b - 4.0 * a * c
    if disc < 0:
        # trajectory never intersects the circle boundary
        return 0.0 if outside else STATIONARY_RESIDENCE_TIME
    sqrt_disc = math.sqrt(disc)
    t1 = (-b - sqrt_disc) / (2.0 * a)
    t2 = (-b + sqrt_disc) / (2.0 * a)
    if not outside:
        # inside: exit time is the larger root (the smaller is in the past
        # or negative)
        exit_time = t2
        return max(0.0, exit_time)
    # outside the circle: if it will enter (t1 > 0) the residence time is the
    # chord duration; otherwise it never resides in the circle.
    if t2 <= 0:
        return 0.0
    entry = max(t1, 0.0)
    return max(0.0, t2 - entry)
