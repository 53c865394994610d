"""Multicast trees inside a logical hypercube.

When a multicast packet first enters a logical hypercube, the entry CH
"computes a multicast tree using its HT-Summary" and encapsulates it in the
packet header (paper Section 4.3).  :func:`greedy_multicast_tree` builds
that tree as a shortest-path tree on an incomplete hypercube (it works with
any pattern of missing CHs/links), attaching every member via its BFS
shortest path from the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.hypercube.routing import RoutingError, shortest_path
from repro.hypercube.topology import IncompleteHypercube


@dataclass
class MulticastTree:
    """A rooted multicast tree over logical node labels.

    ``children`` maps each tree node to the ordered list of its children.
    ``root`` is the entry node; ``members`` records the destination set the
    tree was built for (members always appear in the tree; forwarders that
    are not members may also appear).
    """

    root: int
    children: Dict[int, List[int]] = field(default_factory=dict)
    members: Set[int] = field(default_factory=set)

    def children_of(self, node: int) -> List[int]:
        return list(self.children.get(node, []))

    def serialize(self) -> Dict[str, object]:
        """Plain-dict form for encapsulation into a packet header."""
        return {
            "root": self.root,
            "children": {str(k): list(v) for k, v in self.children.items()},
            "members": sorted(self.members),
        }

    @classmethod
    def deserialize(cls, data: Dict[str, object]) -> "MulticastTree":
        children = {int(k): list(v) for k, v in dict(data["children"]).items()}
        return cls(
            root=int(data["root"]),
            children=children,
            members=set(data["members"]),
        )


def greedy_multicast_tree(
    cube: IncompleteHypercube, root: int, members: Iterable[int]
) -> MulticastTree:
    """Shortest-path multicast tree on an incomplete hypercube.

    Every member is attached to the growing tree along its BFS shortest
    path from the root, reusing already-added forwarders where the paths
    overlap.  Unreachable members are silently skipped (the caller can
    compare ``tree.members`` with the requested set to detect this).
    """
    member_list = sorted({m for m in members})
    tree = MulticastTree(root=root, members=set())
    if root not in cube:
        return tree
    in_tree: Set[int] = {root}
    parent_map: Dict[int, int] = {}
    for member in member_list:
        if member == root:
            tree.members.add(member)
            continue
        if member not in cube:
            continue
        try:
            path = shortest_path(cube, root, member)
        except RoutingError:
            continue
        # graft the path onto the tree, skipping the prefix already present
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
