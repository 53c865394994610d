"""Mobile nodes.

A :class:`MobileNode` owns its protocol agents, per-node statistics and a
multicast membership set.  All physical transmission goes through the
:class:`~repro.simulation.network.Network`, which knows positions and
neighbourhood: the paper's GPS assumption is modelled by every node
reading its true position and velocity from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.simulation.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.agent import ProtocolAgent
    from repro.simulation.network import Network


@dataclass
class NodeStats:
    """Per-node transmission / reception counters."""

    sent_packets: int = 0
    sent_bytes: int = 0
    received_packets: int = 0
    received_bytes: int = 0
    sent_control_packets: int = 0
    sent_control_bytes: int = 0
    sent_data_packets: int = 0
    sent_data_bytes: int = 0
    delivered_to_application: int = 0
    energy_consumed: float = 0.0

    def record_send(self, packet: Packet, tx_energy: float) -> None:
        self.sent_packets += 1
        self.sent_bytes += packet.size_bytes
        self.energy_consumed += tx_energy
        if packet.kind is PacketKind.DATA:
            self.sent_data_packets += 1
            self.sent_data_bytes += packet.size_bytes
        else:
            self.sent_control_packets += 1
            self.sent_control_bytes += packet.size_bytes

    def record_receive(self, packet: Packet, rx_energy: float) -> None:
        self.received_packets += 1
        self.received_bytes += packet.size_bytes
        self.energy_consumed += rx_energy


class MobileNode:
    """One mobile node of the MANET.

    Parameters
    ----------
    node_id:
        Unique integer identifier.
    ch_capable:
        Whether the node has the stronger computation/communication
        capability the paper requires of cluster heads (Section 3,
        assumption 2).  Nodes with ``ch_capable=False`` are never elected
        CH.
    tx_energy, rx_energy:
        Energy units charged per transmission / reception (simple counters
        for the load-balancing and energy experiments).
    """

    def __init__(
        self,
        node_id: int,
        ch_capable: bool = True,
        tx_energy: float = 1.0,
        rx_energy: float = 0.5,
    ) -> None:
        self.node_id = node_id
        self.ch_capable = ch_capable
        self.tx_energy = tx_energy
        self.rx_energy = rx_energy
        self.stats = NodeStats()
        self.groups: Set[int] = set()
        self.alive = True
        self._agents: List["ProtocolAgent"] = []
        self._network: Optional["Network"] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_agent(self, agent: "ProtocolAgent") -> None:
        """Attach a protocol agent; requires the node to be in a network."""
        if self._network is None:
            raise RuntimeError("node must be added to a Network before attaching agents")
        agent.bind(self, self._network)
        self._agents.append(agent)

    def bind_network(self, network: "Network") -> None:
        self._network = network

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise RuntimeError("node is not part of a network")
        return self._network

    @property
    def agents(self) -> List["ProtocolAgent"]:
        return list(self._agents)

    def agent(self, protocol_name: str) -> "ProtocolAgent":
        """Return the attached agent with the given protocol name."""
        for agent in self._agents:
            if agent.protocol_name == protocol_name:
                return agent
        raise KeyError(f"node {self.node_id} has no agent {protocol_name!r}")

    def has_agent(self, protocol_name: str) -> bool:
        return any(a.protocol_name == protocol_name for a in self._agents)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def join_group(self, group: int) -> None:
        if group not in self.groups:
            self.groups.add(group)
            for agent in self._agents:
                agent.on_group_join(group)

    def leave_group(self, group: int) -> None:
        if group in self.groups:
            self.groups.discard(group)
            for agent in self._agents:
                agent.on_group_leave(group)

    def is_member(self, group: int) -> bool:
        return group in self.groups

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Mark the node as failed: it stops sending and receiving."""
        self.alive = False

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def broadcast(self, packet: Packet) -> None:
        """Transmit ``packet`` to every physical neighbour."""
        if not self.alive:
            return
        self.stats.record_send(packet, self.tx_energy)
        self.network.transmit(self.node_id, packet, destination=None)

    def unicast(self, destination: int, packet: Packet) -> None:
        """Transmit ``packet`` to a single physical neighbour."""
        if not self.alive:
            return
        self.stats.record_send(packet, self.tx_energy)
        self.network.transmit(self.node_id, packet, destination=destination)

    def deliver(self, packet: Packet, from_node: int) -> None:
        """Called by the network when a transmission reaches this node."""
        if not self.alive:
            return
        self.stats.record_receive(packet, self.rx_energy)
        matched = False
        for agent in self._agents:
            if agent.protocol_name == packet.protocol:
                agent.on_packet(packet, from_node)
                matched = True
        if not matched:
            for agent in self._agents:
                agent.on_packet(packet, from_node)

    def deliver_to_application(self, packet: Packet) -> None:
        """Record that a multicast data packet reached this group member."""
        self.stats.delivered_to_application += 1
        self.network.note_delivery(packet, self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MobileNode(id={self.node_id}, ch_capable={self.ch_capable}, alive={self.alive})"
