"""Protocol agent interface.

Every routing / multicast protocol in this library (the HVDB protocol of
the paper and the baselines) is implemented as a :class:`ProtocolAgent`
attached to a :class:`~repro.simulation.node.MobileNode`.  Agents react to
three stimuli: simulation start, packet reception, and multicast group
membership changes; anything periodic is driven by timers the agent
creates on the shared simulator.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.node import MobileNode
    from repro.simulation.network import Network
    from repro.simulation.packet import Packet


class ProtocolAgent(abc.ABC):
    """Base class for per-node protocol implementations."""

    #: protocol identifier; packets whose ``protocol`` matches are delivered
    #: to this agent (every agent also sees packets with no matching agent).
    protocol_name: str = "agent"

    def __init__(self) -> None:
        self.node: Optional["MobileNode"] = None
        self.network: Optional["Network"] = None
        self.node_id: Optional[int] = None     #: the node's id (set by :meth:`bind`)

    # ------------------------------------------------------------------
    # wiring (called by MobileNode.attach_agent)
    # ------------------------------------------------------------------
    def bind(self, node: "MobileNode", network: "Network") -> None:
        self.node = node
        self.network = network
        self.node_id = node.node_id

    @property
    def simulator(self):
        """The shared simulation kernel (valid after :meth:`bind`)."""
        return self.network.simulator

    @property
    def now(self) -> float:
        return self.network.simulator.now

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once when the network starts the simulation."""

    @abc.abstractmethod
    def on_packet(self, packet: "Packet", from_node: int) -> None:
        """Called for every packet this node receives."""

    def on_group_join(self, group: int) -> None:
        """Called when this node joins multicast group ``group``."""

    def on_group_leave(self, group: int) -> None:
        """Called when this node leaves multicast group ``group``."""

    def send_multicast(self, group: int, payload: Any, size_bytes: int = 512) -> None:
        """Application-level multicast send; overridden by multicast protocols."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement application multicast"
        )
