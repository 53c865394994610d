"""Flooding multicast baseline.

The simplest MANET multicast: the source broadcasts the packet and every
node re-broadcasts each distinct packet exactly once.  Delivery is close
to the connectivity upper bound, but every node transmits every packet, so
overhead grows with ``O(N)`` transmissions per packet and the load is
spread indiscriminately -- the reference point the paper's scalability
argument is made against.
"""

from __future__ import annotations

from typing import Set

from repro.registry import register_protocol
from repro.simulation.agent import ProtocolAgent
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.stack import AgentStack

FLOODING_PROTOCOL = "flooding"


class FloodingMulticastAgent(ProtocolAgent):
    """Blind flooding with per-packet duplicate suppression."""

    protocol_name = FLOODING_PROTOCOL

    def __init__(self) -> None:
        super().__init__()
        self._seen: Set[int] = set()
        self.data_originated = 0
        self.rebroadcasts = 0

    def send_multicast(self, group: int, payload, size_bytes: int = 512) -> None:
        packet = Packet(
            kind=PacketKind.DATA,
            protocol=FLOODING_PROTOCOL,
            msg_type="data",
            source=self.node_id,
            group=group,
            payload=payload,
            size_bytes=size_bytes,
            created_at=self.now,
        )
        members = self.network.group_members(group)
        self.network.register_data_packet(packet, members)
        self.data_originated += 1
        self._seen.add(packet.uid)
        if self.node.is_member(group):
            self.node.deliver_to_application(packet)
        self.node.broadcast(packet)

    def on_packet(self, packet: Packet, from_node: int) -> None:
        if packet.protocol != FLOODING_PROTOCOL or packet.msg_type != "data":
            return
        if packet.uid in self._seen:
            return
        self._seen.add(packet.uid)
        if packet.group is not None and self.node.is_member(packet.group):
            self.node.deliver_to_application(packet)
        self.rebroadcasts += 1
        # passed on as received: transmit makes the on-air copy
        self.node.broadcast(packet)


@register_protocol(FLOODING_PROTOCOL)
class FloodingStack(AgentStack):
    """The registered ``flooding`` stack: one agent per node, no knobs."""

    name = FLOODING_PROTOCOL
    stat_fields = ("data_originated", "rebroadcasts")

    def make_agent(self, config=None) -> FloodingMulticastAgent:
        return FloodingMulticastAgent()
