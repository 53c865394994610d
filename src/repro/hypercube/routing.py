"""Routing inside (possibly incomplete) hypercubes.

The hypercube tier routes packets between cluster heads using the local
logical routes each CH maintains proactively (paper Section 4.1).  This
module holds the shortest-path (BFS) route on an incomplete hypercube that
:func:`repro.hypercube.multicast_tree.greedy_multicast_tree` grafts each
member onto its tree with.
"""

from __future__ import annotations

from typing import Dict, List

from repro.hypercube.topology import IncompleteHypercube


class RoutingError(RuntimeError):
    """Raised when no route exists between the requested endpoints."""


def shortest_path(
    cube: IncompleteHypercube, source: int, destination: int
) -> List[int]:
    """Shortest path on an incomplete hypercube (BFS), inclusive of endpoints.

    Raises :class:`RoutingError` when the destination is unreachable or
    either endpoint is absent.
    """
    if source not in cube:
        raise RoutingError(f"source {source} not present")
    if destination not in cube:
        raise RoutingError(f"destination {destination} not present")
    if source == destination:
        return [source]
    parent: Dict[int, int] = {source: source}
    frontier = [source]
    while frontier:
        next_frontier: List[int] = []
        for current in frontier:
            for nb in cube.neighbors(current):
                if nb in parent:
                    continue
                parent[nb] = current
                if nb == destination:
                    return _reconstruct(parent, source, destination)
                next_frontier.append(nb)
        frontier = next_frontier
    raise RoutingError(f"no route from {source} to {destination}")


def _reconstruct(parent: Dict[int, int], source: int, destination: int) -> List[int]:
    path = [destination]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path
