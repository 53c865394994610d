"""The Mesh Tier: a logical 2-D (possibly incomplete) mesh of hypercubes.

"The Mesh Tier (MT) is a logical 2-dimensional mesh network by viewing each
k-dimensional hypercube as one mesh node.  In the same way, the
2-dimensional mesh is possibly an incomplete mesh, and the link between two
adjacent mesh nodes is logical and physically multi-hop." (paper Section 3)

Mesh nodes are addressed by integer ``(column, row)`` coordinates -- the
Mesh Node ID (MNID) of the identifier scheme in Section 4.1.  A mesh node
is *actual* only when a logical hypercube (i.e. at least one CH) exists in
its region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Mesh node coordinate (column, row) == MNID.
MeshCoord = Tuple[int, int]


class MeshGrid:
    """A ``cols x rows`` logical mesh, possibly with absent nodes.

    Adjacency is the 4-neighbourhood.  Absent nodes model regions with no
    cluster heads at all.
    """

    def __init__(self, cols: int, rows: int, present: Optional[Iterable[MeshCoord]] = None) -> None:
        if cols <= 0 or rows <= 0:
            raise ValueError("mesh dimensions must be positive")
        self.cols = cols
        self.rows = rows
        if present is None:
            self._present: Set[MeshCoord] = {
                (c, r) for c in range(cols) for r in range(rows)
            }
        else:
            self._present = set()
            for coord in present:
                self._validate(coord)
                self._present.add(coord)

    def _validate(self, coord: MeshCoord) -> None:
        c, r = coord
        if not (0 <= c < self.cols and 0 <= r < self.rows):
            raise ValueError(f"mesh coordinate {coord} outside {self.cols}x{self.rows} grid")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _adjacent(self, a: MeshCoord, b: MeshCoord) -> bool:
        return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def __contains__(self, coord: MeshCoord) -> bool:
        return coord in self._present

    def __len__(self) -> int:
        return len(self._present)

    def has_link(self, a: MeshCoord, b: MeshCoord) -> bool:
        return a in self._present and b in self._present and self._adjacent(a, b)

    def neighbors(self, coord: MeshCoord) -> List[MeshCoord]:
        if coord not in self._present:
            raise KeyError(f"mesh node {coord} not present")
        c, r = coord
        out: List[MeshCoord] = []
        for dc, dr in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            other = (c + dc, r + dr)
            if 0 <= other[0] < self.cols and 0 <= other[1] < self.rows:
                if self.has_link(coord, other):
                    out.append(other)
        return out

    def shortest_path(self, source: MeshCoord, destination: MeshCoord) -> List[MeshCoord]:
        """BFS shortest path over present mesh nodes (inclusive endpoints)."""
        if source not in self._present or destination not in self._present:
            raise KeyError("source or destination not present in mesh")
        if source == destination:
            return [source]
        parent: Dict[MeshCoord, MeshCoord] = {source: source}
        frontier = [source]
        while frontier:
            next_frontier: List[MeshCoord] = []
            for current in frontier:
                for nb in self.neighbors(current):
                    if nb in parent:
                        continue
                    parent[nb] = current
                    if nb == destination:
                        path = [destination]
                        while path[-1] != source:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    next_frontier.append(nb)
            frontier = next_frontier
        raise ValueError(f"no mesh route from {source} to {destination}")


@dataclass
class MeshMulticastTree:
    """A multicast tree whose nodes are mesh coordinates (MNIDs)."""

    root: MeshCoord
    children: Dict[MeshCoord, List[MeshCoord]] = field(default_factory=dict)
    members: Set[MeshCoord] = field(default_factory=set)

    def children_of(self, node: MeshCoord) -> List[MeshCoord]:
        return list(self.children.get(node, []))

    def serialize(self) -> Dict[str, object]:
        return {
            "root": list(self.root),
            "children": {f"{k[0]},{k[1]}": [list(v) for v in kids] for k, kids in self.children.items()},
            "members": sorted([list(m) for m in self.members]),
        }

    @classmethod
    def deserialize(cls, data: Dict[str, object]) -> "MeshMulticastTree":
        children: Dict[MeshCoord, List[MeshCoord]] = {}
        for key, kids in dict(data["children"]).items():
            c, r = key.split(",")
            children[(int(c), int(r))] = [tuple(k) for k in kids]  # type: ignore[misc]
        return cls(
            root=tuple(data["root"]),  # type: ignore[arg-type]
            children=children,
            members={tuple(m) for m in data["members"]},  # type: ignore[misc]
        )


def mesh_multicast_tree(
    mesh: MeshGrid, root: MeshCoord, members: Iterable[MeshCoord]
) -> MeshMulticastTree:
    """Shortest-path multicast tree over the mesh tier.

    The source's CH computes this tree from its MT-Summary: ``members`` are
    the mesh coordinates (logical hypercubes) known to contain group
    members (paper Section 4.3, step 2 of Figure 6).  Unreachable members
    are skipped; the caller compares ``tree.members`` to detect gaps.
    """
    member_list = sorted({m for m in members})
    tree = MeshMulticastTree(root=root, members=set())
    if root not in mesh:
        return tree
    in_tree: Set[MeshCoord] = {root}
    parent_map: Dict[MeshCoord, MeshCoord] = {}
    for member in member_list:
        if member == root:
            tree.members.add(member)
            continue
        if member not in mesh:
            continue
        try:
            path = mesh.shortest_path(root, member)
        except (ValueError, KeyError):
            continue
        for a, b in zip(path, path[1:]):
            if b in in_tree:
                continue
            parent_map[b] = a
            in_tree.add(b)
        tree.members.add(member)
    for child, parent in parent_map.items():
        tree.children.setdefault(parent, []).append(child)
    for kids in tree.children.values():
        kids.sort()
    return tree
