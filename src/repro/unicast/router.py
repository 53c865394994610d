"""Greedy geographic unicast forwarding agent.

Every node runs a :class:`GeoUnicastAgent`.  Protocols hand it an *inner*
packet and a destination node; the agent tunnels the inner packet inside a
geo-routing envelope and forwards it hop by hop using greedy geographic
progress, falling back to a recovery walk around voids.  At the
destination the envelope is removed and the inner packet is delivered to
the destination node's protocol agents exactly as if it had arrived over a
direct link, so upper layers never see the multi-hop detail ("the logical
link between two adjacent logical hypercube nodes possibly consists of
multi-hop physical links", paper Section 3).
"""

from __future__ import annotations

from repro.simulation.agent import ProtocolAgent
from repro.simulation.packet import Packet
from repro.unicast import greedy

#: Protocol identifier of the geographic unicast agent.
GEO_PROTOCOL = "geo-unicast"

#: Envelope overhead in bytes (destination id + position + mode + visited list).
_ENVELOPE_OVERHEAD = 24


class GeoUnicastAgent(ProtocolAgent):
    """GPSR-like greedy + recovery geographic unicast forwarding."""

    protocol_name = GEO_PROTOCOL

    def __init__(self, max_visited: int = 64) -> None:
        super().__init__()
        self.max_visited = max_visited
        self.sent = 0
        self.delivered = 0
        self.dropped_no_route = 0
        self.forwarded = 0

    # ------------------------------------------------------------------
    # sending API used by upper-layer protocols
    # ------------------------------------------------------------------
    def send(self, inner: Packet, dest_node: int) -> None:
        """Tunnel ``inner`` to ``dest_node`` via geographic forwarding."""
        if dest_node == self.node_id:
            # Local delivery without touching the radio.
            self.node.deliver(inner, self.node_id)
            return
        envelope = Packet(
            kind=inner.kind,
            protocol=GEO_PROTOCOL,
            msg_type="tunnel",
            source=self.node_id,
            group=inner.group,
            destination=dest_node,
            payload=inner,
            headers={
                "dest_node": dest_node,
                "visited": (self.node_id,),
                "mode": "greedy",
            },
            size_bytes=inner.size_bytes + _ENVELOPE_OVERHEAD,
            created_at=self.now,
            uid=inner.uid,
            hops=inner.hops,
            logical_hops=inner.logical_hops,
        )
        self.sent += 1
        self._forward(envelope)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, from_node: int) -> None:
        if packet.protocol != GEO_PROTOCOL or packet.msg_type != "tunnel":
            return
        dest = packet.headers["dest_node"]
        if dest == self.node_id:
            inner: Packet = packet.payload
            inner.hops = packet.hops
            self.delivered += 1
            self.node.deliver(inner, from_node)
            return
        # a new tuple per hop: copies of one envelope share header values
        visited = packet.headers.get("visited", ())
        if self.node_id not in visited:
            visited = packet.headers["visited"] = visited + (self.node_id,)
        if len(visited) > self.max_visited:
            self.dropped_no_route += 1
            return
        self.forwarded += 1
        self._forward(packet)

    def _forward(self, envelope: Packet) -> None:
        dest = envelope.headers["dest_node"]
        network = self.network
        dest_node = network.nodes.get(dest)
        if dest_node is None or not dest_node.alive:
            self.dropped_no_route += 1
            return
        node_id = self.node_id
        neighbors = network.neighbor_positions(node_id)
        if dest in neighbors:
            self.node.unicast(dest, envelope)
            return
        dest_pos = network.position_of(dest)
        my_pos = network.position_of(node_id)
        visited = envelope.headers["visited"]
        next_hop = greedy.greedy_next_hop(my_pos, dest_pos, neighbors, exclude=visited)
        if next_hop is None:
            envelope.headers["mode"] = "recovery"
            next_hop = greedy.recovery_next_hop(my_pos, dest_pos, neighbors, visited)
        else:
            envelope.headers["mode"] = "greedy"
        if next_hop is None:
            self.dropped_no_route += 1
            return
        self.node.unicast(next_hop, envelope)
