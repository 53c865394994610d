"""Complete and generalized incomplete hypercube topologies.

The paper generalizes Katseff's incomplete hypercube [12] "by allowing any
number of nodes/links to be absent due to many reasons such as mobility,
transmission range, and failure of nodes" (Section 2.1).  The Hypercube
Tier of the HVDB is built from such generalized incomplete hypercubes: a
logical hypercube node exists only where a cluster head exists, and a
logical link exists only when the two cluster heads can actually reach each
other.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.hypercube.labels import all_labels, hamming_distance, is_valid_label

#: An undirected logical link between two hypercube node labels.
Edge = Tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a <= b else (b, a)


class Hypercube:
    """A complete ``n``-dimensional hypercube.

    Only its dimension is needed: :func:`repro.hypercube.paths.node_disjoint_paths`
    takes the explicit construction for a complete cube.
    :class:`IncompleteHypercube` holds the graph queries for cubes with
    missing nodes/links.
    """

    def __init__(self, dimension: int) -> None:
        if dimension < 0:
            raise ValueError("dimension must be non-negative")
        self.dimension = dimension

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypercube(dimension={self.dimension})"


class IncompleteHypercube:
    """A generalized incomplete hypercube: any subset of nodes and links.

    Nodes are labels from the complete ``n``-cube; an edge may exist only
    between labels at Hamming distance 1 and only if both endpoints are
    present.  Edges may additionally be removed individually (modelling a
    pair of cluster heads that exist but cannot reach each other).
    """

    def __init__(
        self,
        dimension: int,
        present_nodes: Optional[Iterable[int]] = None,
        removed_edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        if dimension < 0:
            raise ValueError("dimension must be non-negative")
        self.dimension = dimension
        if present_nodes is None:
            self._nodes: Set[int] = set(all_labels(dimension))
        else:
            self._nodes = set()
            for label in present_nodes:
                if not is_valid_label(label, dimension):
                    raise ValueError(
                        f"label {label} out of range for dimension {dimension}"
                    )
                self._nodes.add(label)
        self._removed_edges: Set[Edge] = set()
        if removed_edges:
            for a, b in removed_edges:
                self.remove_edge(a, b)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def remove_node(self, label: int) -> None:
        self._nodes.discard(label)

    def remove_edge(self, a: int, b: int) -> None:
        if hamming_distance(a, b) != 1:
            raise ValueError(f"{a} and {b} are not hypercube-adjacent")
        self._removed_edges.add(_norm_edge(a, b))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._nodes)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, label: int) -> bool:
        return label in self._nodes

    def nodes(self) -> Iterator[int]:
        return iter(sorted(self._nodes))

    def node_set(self) -> FrozenSet[int]:
        return frozenset(self._nodes)

    def has_edge(self, a: int, b: int) -> bool:
        return (
            a in self._nodes
            and b in self._nodes
            and hamming_distance(a, b) == 1
            and _norm_edge(a, b) not in self._removed_edges
        )

    def neighbors(self, label: int) -> List[int]:
        if label not in self._nodes:
            raise KeyError(f"label {label} not present in incomplete hypercube")
        out = []
        for d in range(self.dimension):
            other = label ^ (1 << d)
            if self.has_edge(label, other):
                out.append(other)
        return out

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True if every present node can reach every other present node."""
        if not self._nodes:
            return True
        return len(self.reachable_from(next(iter(self._nodes)))) == len(self._nodes)

    def reachable_from(self, source: int) -> Set[int]:
        """Set of present nodes reachable from ``source`` via present links."""
        if source not in self._nodes:
            raise KeyError(f"label {source} not present")
        seen = {source}
        frontier = [source]
        while frontier:
            current = frontier.pop()
            for nb in self.neighbors(current):
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        return seen

    def eccentricity(self, source: int) -> int:
        """Largest hop distance from ``source`` to any reachable node."""
        dist = self.bfs_distances(source)
        return max(dist.values()) if dist else 0

    def diameter(self) -> int:
        """Largest hop distance over all connected pairs (0 if empty)."""
        best = 0
        for node in self._nodes:
            best = max(best, self.eccentricity(node))
        return best

    def bfs_distances(self, source: int) -> Dict[int, int]:
        """Hop distance from ``source`` to every reachable present node."""
        if source not in self._nodes:
            raise KeyError(f"label {source} not present")
        dist = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for current in frontier:
                for nb in self.neighbors(current):
                    if nb not in dist:
                        dist[nb] = dist[current] + 1
                        next_frontier.append(nb)
            frontier = next_frontier
        return dist

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncompleteHypercube(dimension={self.dimension}, "
            f"nodes={len(self._nodes)}/{1 << self.dimension}, "
            f"removed_edges={len(self._removed_edges)})"
        )
