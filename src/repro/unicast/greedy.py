"""Next-hop selection for location-based unicast forwarding."""

from __future__ import annotations

import math
from typing import Collection, Mapping, Optional

from repro.geo.geometry import Point


def greedy_next_hop(
    current: Point,
    destination: Point,
    neighbors: Mapping[int, Point],
    exclude: Optional[Collection[int]] = None,
) -> Optional[int]:
    """Neighbour that makes the most progress towards ``destination``.

    Returns ``None`` when no neighbour is strictly closer to the
    destination than the current node (the local-maximum / void situation
    greedy forwarding is known for), in which case the caller should switch
    to recovery mode.
    """
    # math.hypot inline on the operands geometry.distance uses: this runs
    # once per neighbour per tunnel hop, and the 1e-12 margin below is only
    # meaningful on these exact distances
    exclude = exclude or ()
    hypot = math.hypot
    dest_x = destination.x
    dest_y = destination.y
    best_id: Optional[int] = None
    best_distance = hypot(current.x - dest_x, current.y - dest_y)
    for node_id, position in neighbors.items():
        if node_id in exclude:
            continue
        d = hypot(position.x - dest_x, position.y - dest_y)
        if d < best_distance - 1e-12:
            best_distance = d
            best_id = node_id
    return best_id


def recovery_next_hop(
    current: Point,
    destination: Point,
    neighbors: Mapping[int, Point],
    visited: Collection[int],
) -> Optional[int]:
    """Recovery forwarding when greedy progress is impossible.

    A simplified stand-in for GPSR's perimeter (right-hand rule) mode: pick
    the unvisited neighbour closest to the destination even if it does not
    make strict progress.  Combined with the per-packet visited set this
    walks the packet around voids and provably terminates (every hop
    consumes one unvisited node).
    """
    hypot = math.hypot
    dest_x = destination.x
    dest_y = destination.y
    best_id: Optional[int] = None
    best_distance = float("inf")
    for node_id, position in neighbors.items():
        if node_id in visited:
            continue
        d = hypot(position.x - dest_x, position.y - dest_y)
        if d < best_distance:
            best_distance = d
            best_id = node_id
    return best_id
