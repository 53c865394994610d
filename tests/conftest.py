"""Shared pytest fixtures.

Also makes the test suite runnable straight from a source checkout (without
``pip install -e .``) by putting ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Set

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

import pytest

from repro.geo.area import Area
from repro.geo.geometry import distance
from repro.geo.grid import VirtualCircleGrid
from repro.hypercube.labels import all_labels, differing_dimensions, label_to_bits
from repro.hypercube.multicast_tree import MulticastTree
from repro.hypercube.topology import IncompleteHypercube
from repro.mobility.static import StaticMobility
from repro.simulation.mac import IdealMac
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.node import MobileNode
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.phy import SinrRadio
from repro.simulation.radio import LogDistanceRadio, UnitDiskRadio


@pytest.fixture
def small_area() -> Area:
    """A 1000 x 1000 m deployment area."""
    return Area(1000.0, 1000.0)


@pytest.fixture
def grid_8x8(small_area: Area) -> VirtualCircleGrid:
    """The paper's Figure 2 layout: an 8x8 virtual-circle grid."""
    return VirtualCircleGrid(small_area, 8, 8)


def make_static_network(
    positions,
    area: Area = None,
    radio_range: float = 250.0,
    seed: int = 1,
    ideal_mac: bool = True,
) -> Network:
    """Build a static network with explicitly placed nodes.

    ``positions`` maps node id -> Point.  Used by many unit and integration
    tests that need a deterministic topology.
    """
    area = area or Area(1000.0, 1000.0)
    node_ids = sorted(positions.keys())
    mobility = StaticMobility(area, node_ids, positions=positions, seed=seed)
    config = NetworkConfig(
        area=area,
        radio=UnitDiskRadio(radio_range),
        mac=IdealMac() if ideal_mac else NetworkConfig(area=area).mac,
        seed=seed,
    )
    network = Network(config, mobility)
    for node_id in node_ids:
        network.add_node(MobileNode(node_id))
    return network


@pytest.fixture
def static_network_factory():
    """Factory fixture returning :func:`make_static_network`."""
    return make_static_network


def literal_in_range(radio):
    """``radio``'s disc test, written out per radio type.

    Reference tests compare against this instead of ``radio.in_range``,
    so they do not check the code against itself.  Each entry is the
    arithmetic that radio type has always used; a newly registered radio
    needs its own entry.
    """
    if type(radio) is UnitDiskRadio:
        return lambda a, b: math.hypot(a.x - b.x, a.y - b.y) <= radio.range_m + 1e-9
    if type(radio) is LogDistanceRadio:
        return lambda a, b: distance(a, b) <= radio.range_m * radio.max_fraction + 1e-9
    if type(radio) is SinrRadio:
        return lambda a, b: distance(a, b) <= radio._range + 1e-9
    raise KeyError(f"no literal disc test for {type(radio).__name__}")


def control_packet(
    protocol: str,
    msg_type: str,
    source: int,
    size_bytes: int,
    now: float,
    destination: Optional[int] = None,
    headers: Optional[Dict[str, Any]] = None,
) -> Packet:
    """A control-plane packet, as the protocols build them inline."""
    return Packet(
        kind=PacketKind.CONTROL,
        protocol=protocol,
        msg_type=msg_type,
        source=source,
        destination=destination,
        headers=headers or {},
        size_bytes=size_bytes,
        created_at=now,
    )


def data_packet(
    protocol: str,
    source: int,
    group: int,
    payload: Any,
    size_bytes: int,
    now: float,
    headers: Optional[Dict[str, Any]] = None,
) -> Packet:
    """An application data packet, as the protocols build them inline."""
    return Packet(
        kind=PacketKind.DATA,
        protocol=protocol,
        msg_type="data",
        source=source,
        group=group,
        payload=payload,
        headers=headers or {},
        size_bytes=size_bytes,
        created_at=now,
    )


def is_valid_tree(tree: MulticastTree) -> bool:
    """Oracle: ``tree`` is connected from its root, acyclic, one parent per node."""
    nodes = {tree.root}
    parents_count: Dict[int, int] = {}
    for parent, kids in tree.children.items():
        nodes.add(parent)
        nodes.update(kids)
        for kid in kids:
            parents_count[kid] = parents_count.get(kid, 0) + 1
    if any(count > 1 for count in parents_count.values()):
        return False
    if tree.root in parents_count:
        return False
    seen: Set[int] = set()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node in seen:
            return False
        seen.add(node)
        stack.extend(tree.children.get(node, []))
    return seen == nodes


def tree_edges(tree) -> list:
    """``(parent, child)`` links of a hypercube- or mesh-tier multicast tree."""
    return [(parent, kid) for parent, kids in tree.children.items() for kid in kids]


def tree_nodes(tree) -> set:
    """Every node of a multicast tree: its root and both ends of each link."""
    return {tree.root} | {node for edge in tree_edges(tree) for node in edge}


def tree_depths(tree) -> Dict[int, int]:
    """Hop depth below the root of every node of a multicast tree."""
    depths = {tree.root: 0}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for kid in tree.children_of(node):
            depths[kid] = depths[node] + 1
            stack.append(kid)
    return depths


def gray_code(dimension: int) -> List[int]:
    """Oracle: the reflected Gray code of a ``dimension``-cube (``i ^ (i >> 1)``)."""
    return [label ^ (label >> 1) for label in all_labels(dimension)]


def subcube_members(pattern: str) -> List[int]:
    """Oracle: the labels matching ``pattern`` (MSB first, ``*`` free), one subcube."""
    if set(pattern) - set("01*"):
        raise ValueError(f"subcube pattern {pattern!r} may hold only 0, 1 and *")
    n = len(pattern)
    return [
        label
        for label in all_labels(n)
        if all(p in ("*", bit) for p, bit in zip(pattern, label_to_bits(label, n)))
    ]


def canonical_subcube(labels: Sequence[int], dimension: int) -> str:
    """Oracle: the pattern of the smallest subcube holding every label."""
    if not labels:
        raise ValueError("the smallest subcube of no labels is undefined")
    free = {d for label in labels for d in differing_dimensions(labels[0], label)}
    bits = label_to_bits(labels[0], dimension)
    return "".join("*" if dimension - 1 - i in free else bit for i, bit in enumerate(bits))


def are_node_disjoint(paths: Sequence[Sequence[int]]) -> bool:
    """Oracle: no two paths share an intermediate node (endpoints may)."""
    seen: Set[int] = set()
    for path in paths:
        for node in path[1:-1]:
            if node in seen:
                return False
            seen.add(node)
    return True


def path_is_valid(cube: IncompleteHypercube, path: Sequence[int]) -> bool:
    """Oracle: every consecutive pair of ``path`` is a present logical link."""
    if not path:
        return False
    if len(path) == 1:
        return path[0] in cube
    return all(cube.has_edge(a, b) for a, b in zip(path, path[1:]))
