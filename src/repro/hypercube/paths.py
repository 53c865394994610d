"""Node-disjoint paths in hypercubes.

"The hypercube offers n node disjoint paths between each pair of nodes,
therefore it can sustain up to n - 1 node failures" (paper Section 2.1).
This module constructs those paths both on complete hypercubes (classical
rotation construction) and on incomplete hypercubes (max-flow style
augmentation); E1 measures both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hypercube.labels import differing_dimensions
from repro.hypercube.topology import Hypercube, IncompleteHypercube


def _complete_disjoint_paths(dimension: int, source: int, destination: int) -> List[List[int]]:
    """The classical ``n`` node-disjoint paths on a complete ``n``-cube.

    Construction (Saad & Schultz): let ``D`` be the set of dimensions in
    which source and destination differ (``|D| = h``).  For each
    ``i in 0..h-1`` rotate the correction order of ``D`` by ``i`` to get a
    shortest path; these ``h`` paths are internally node-disjoint.  For
    each dimension ``d`` *not* in ``D`` take a path that first steps out
    along ``d``, then corrects all of ``D`` in order, then steps back along
    ``d``; these ``n - h`` paths have length ``h + 2`` and are disjoint
    from each other and from the shortest ones.
    """
    if source == destination:
        return [[source]]
    diff = differing_dimensions(source, destination)
    h = len(diff)
    paths: List[List[int]] = []
    # h shortest paths from rotations of the correction order
    for i in range(h):
        order = diff[i:] + diff[:i]
        node = source
        path = [node]
        for d in order:
            node ^= 1 << d
            path.append(node)
        paths.append(path)
    # n - h paths of length h + 2 through the remaining dimensions
    for d in range(dimension):
        if d in diff:
            continue
        node = source ^ (1 << d)
        path = [source, node]
        for dd in diff:
            node ^= 1 << dd
            path.append(node)
        node ^= 1 << d
        path.append(node)
        paths.append(path)
    return paths


def node_disjoint_paths(
    cube: "Hypercube | IncompleteHypercube",
    source: int,
    destination: int,
    max_paths: Optional[int] = None,
) -> List[List[int]]:
    """Node-disjoint paths between ``source`` and ``destination``.

    On a complete :class:`Hypercube` the classical explicit construction is
    used and exactly ``n`` paths are returned.  On an
    :class:`IncompleteHypercube` a unit-capacity max-flow (node-splitting +
    BFS augmentation) computes a maximum set of vertex-disjoint paths that
    exist in the damaged cube.  ``max_paths`` caps the number of paths
    searched for (useful when only a couple of backup routes are needed).
    """
    if isinstance(cube, Hypercube):
        paths = _complete_disjoint_paths(cube.dimension, source, destination)
        if max_paths is not None:
            paths = paths[:max_paths]
        return paths
    return _incomplete_disjoint_paths(cube, source, destination, max_paths)


# ----------------------------------------------------------------------
# Max-flow based construction for incomplete hypercubes
# ----------------------------------------------------------------------
_IN = 0
_OUT = 1


def _incomplete_disjoint_paths(
    cube: IncompleteHypercube,
    source: int,
    destination: int,
    max_paths: Optional[int],
) -> List[List[int]]:
    if source not in cube or destination not in cube:
        return []
    if source == destination:
        return [[source]]

    limit = max_paths if max_paths is not None else cube.dimension

    # Node-split flow network: each node v becomes v_in -> v_out with
    # capacity 1 (except source/destination which are uncapacitated).
    # Every logical link (u, v) becomes u_out -> v_in and v_out -> u_in.
    # We run BFS augmentation on residual capacities.
    flow: Dict[Tuple[Tuple[int, int], Tuple[int, int]], int] = {}

    def residual_neighbors(vertex: Tuple[int, int]) -> List[Tuple[int, int]]:
        label, side = vertex
        out: List[Tuple[int, int]] = []
        if side == _IN:
            forward = (label, _OUT)
            cap = 10**9 if label in (source, destination) else 1
            if flow.get((vertex, forward), 0) < cap:
                out.append(forward)
            # residual edges back along incoming link flow
            for nb in cube.neighbors(label):
                back = (nb, _OUT)
                if flow.get((back, vertex), 0) > 0:
                    out.append(back)
        else:  # _OUT
            for nb in cube.neighbors(label):
                forward = (nb, _IN)
                if flow.get((vertex, forward), 0) < 1:
                    out.append(forward)
            back = (label, _IN)
            if flow.get((back, vertex), 0) > 0:
                out.append(back)
        return out

    src_vertex = (source, _OUT)
    dst_vertex = (destination, _IN)

    found = 0
    while found < limit:
        # BFS for an augmenting path in the residual graph.
        parent: Dict[Tuple[int, int], Tuple[int, int]] = {src_vertex: src_vertex}
        frontier = [src_vertex]
        reached = False
        while frontier and not reached:
            next_frontier: List[Tuple[int, int]] = []
            for current in frontier:
                for nb in residual_neighbors(current):
                    if nb in parent:
                        continue
                    parent[nb] = current
                    if nb == dst_vertex:
                        reached = True
                        break
                    next_frontier.append(nb)
                if reached:
                    break
            frontier = next_frontier
        if not reached:
            break
        # Augment along the path by 1 unit.
        vertex = dst_vertex
        while vertex != src_vertex:
            prev = parent[vertex]
            if flow.get((vertex, prev), 0) > 0:
                flow[(vertex, prev)] -= 1
            else:
                flow[(prev, vertex)] = flow.get((prev, vertex), 0) + 1
            vertex = prev
        found += 1

    if found == 0:
        return []

    # Decompose the integral flow into paths by walking from the source.
    # Build per-node outgoing flow map on the original labels.
    out_flow: Dict[int, List[int]] = {}
    for (a, b), value in flow.items():
        if value <= 0:
            continue
        (la, sa), (lb, sb) = a, b
        if sa == _OUT and sb == _IN and la != lb:
            out_flow.setdefault(la, []).append(lb)

    paths: List[List[int]] = []
    for _ in range(found):
        path = [source]
        current = source
        guard = 0
        while current != destination:
            nexts = out_flow.get(current)
            if not nexts:
                path = []
                break
            nxt = nexts.pop()
            path.append(nxt)
            current = nxt
            guard += 1
            if guard > cube.size * 2:
                path = []
                break
        if path:
            paths.append(path)
    return paths
