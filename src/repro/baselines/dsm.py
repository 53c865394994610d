"""Dynamic Source Multicast (DSM)-style baseline.

Basagni et al. [1]: every node periodically floods its location and
transmission radius to the whole network; a sender locally computes a
snapshot of the global topology, builds a multicast (shortest-path) tree
for the group, encodes the tree in the packet header and source-routes the
packet along it.  No multicast session state is kept in routers, but the
periodic network-wide location flooding is the scalability bottleneck the
paper calls out ("the location and transmission radius information has to
be periodically broadcast from each node to all the other nodes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.geo.geometry import Point, distance
from repro.registry import register_protocol
from repro.simulation.agent import ProtocolAgent
from repro.simulation.engine import PeriodicTimer
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.stack import AgentStack

DSM_PROTOCOL = "dsm"


@dataclass
class DsmConfig:
    """Typed DSM section of a ``ScenarioConfig`` (grid axes ``dsm.*``)."""

    position_period: float = 15.0   #: seconds between network-wide position floods


class DsmAgent(ProtocolAgent):
    """Sender-computed source-routed multicast over a flooded global snapshot."""

    protocol_name = DSM_PROTOCOL

    def __init__(self, position_update_period: float = 10.0) -> None:
        super().__init__()
        if position_update_period <= 0:
            raise ValueError("position_update_period must be positive")
        self.position_update_period = position_update_period
        #: global topology snapshot: node -> (position, last update time)
        self.known_positions: Dict[int, Tuple[Point, float]] = {}
        self._seen_control: Set[Tuple[int, int]] = set()
        self._seen_data: Set[int] = set()
        self._update_seq = 0
        self.data_originated = 0
        self.position_floods = 0

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        PeriodicTimer(
            self.simulator,
            self.position_update_period,
            self._flood_position,
            jitter=0.0,
        )
        # every node knows itself from the start
        self.known_positions[self.node_id] = (
            self.network.position_of(self.node_id),
            self.now,
        )

    def _flood_position(self) -> None:
        self._update_seq += 1
        pos = self.network.position_of(self.node_id)
        self.known_positions[self.node_id] = (pos, self.now)
        packet = Packet(
            kind=PacketKind.CONTROL,
            protocol=DSM_PROTOCOL,
            msg_type="position-update",
            source=self.node_id,
            payload={"node": self.node_id, "pos": (pos.x, pos.y), "seq": self._update_seq},
            size_bytes=20,
            created_at=self.now,
        )
        self.position_floods += 1
        self.node.broadcast(packet)

    # ------------------------------------------------------------------
    def send_multicast(self, group: int, payload, size_bytes: int = 512) -> None:
        members = self.network.group_members(group)
        tree = self._compute_source_tree([m for m in members if m != self.node_id])
        packet = Packet(
            kind=PacketKind.DATA,
            protocol=DSM_PROTOCOL,
            msg_type="data",
            source=self.node_id,
            group=group,
            payload=payload,
            headers={"tree": tree},
            size_bytes=size_bytes + 6 * sum(len(v) for v in tree.values()),
            created_at=self.now,
        )
        self.network.register_data_packet(packet, members)
        self.data_originated += 1
        self._seen_data.add(packet.uid)
        if self.node.is_member(group):
            self.node.deliver_to_application(packet)
        self._forward_along_tree(packet)

    def _compute_source_tree(self, members: List[int]) -> Dict[str, List[int]]:
        """Shortest-path tree over the sender's topology snapshot.

        Connectivity between two known nodes is assumed when their known
        positions are within the radio's nominal range (that is exactly the
        information DSM's flooded snapshot provides).  Returns a child-list
        map keyed by stringified node id (header-encodable form).
        """
        radio = self.network.config.radio
        known = {n: p for n, (p, _) in self.known_positions.items()}
        if self.node_id not in known:
            known[self.node_id] = self.network.position_of(self.node_id)
        # BFS over the snapshot graph
        parent: Dict[int, int] = {self.node_id: self.node_id}
        frontier = [self.node_id]
        targets = set(members)
        while frontier and targets:
            next_frontier: List[int] = []
            for current in frontier:
                for other, pos in known.items():
                    if other in parent:
                        continue
                    if radio.in_range(known[current], pos):
                        parent[other] = current
                        targets.discard(other)
                        next_frontier.append(other)
            frontier = next_frontier
        # keep only branches leading to members
        children: Dict[str, List[int]] = {}
        for member in members:
            if member not in parent:
                continue
            node = member
            while node != self.node_id:
                par = parent[node]
                kids = children.setdefault(str(par), [])
                if node not in kids:
                    kids.append(node)
                node = par
        return children

    def _forward_along_tree(self, packet: Packet) -> None:
        tree: Dict[str, List[int]] = packet.headers.get("tree", {})
        children = tree.get(str(self.node_id), [])
        for child in children:
            copy = packet.copy_for_forwarding()
            self.node.unicast(child, copy)

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, from_node: int) -> None:
        if packet.protocol != DSM_PROTOCOL:
            return
        if packet.msg_type == "position-update":
            key = (packet.payload["node"], packet.payload["seq"])
            if key in self._seen_control:
                return
            self._seen_control.add(key)
            x, y = packet.payload["pos"]
            self.known_positions[packet.payload["node"]] = (Point(x, y), self.now)
            self.node.broadcast(packet)
            return
        if packet.msg_type == "data":
            if packet.uid in self._seen_data:
                return
            self._seen_data.add(packet.uid)
            if packet.group is not None and self.node.is_member(packet.group):
                self.node.deliver_to_application(packet)
            self._forward_along_tree(packet)


@register_protocol(DSM_PROTOCOL)
class DsmStack(AgentStack):
    """The registered ``dsm`` stack: source-routed multicast over floods."""

    name = DSM_PROTOCOL
    stat_fields = ("data_originated", "position_floods")

    def make_agent(self, config=None) -> DsmAgent:
        dsm = config.dsm if config is not None else DsmConfig()
        return DsmAgent(position_update_period=dsm.position_period)
