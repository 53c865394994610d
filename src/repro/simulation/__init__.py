"""Discrete-event MANET simulator (System S4).

The paper evaluates (and motivates) its protocol on large-scale mobile ad
hoc networks; no public artefact exists, so this package provides the
packet-level simulation substrate every experiment runs on:

* :mod:`repro.simulation.engine` -- the discrete-event scheduler (event
  heap, simulation clock, periodic timers).
* :mod:`repro.simulation.packet` -- packets and per-packet accounting.
* :mod:`repro.simulation.radio` -- propagation/reception models (unit
  disk, log-distance shadowing).
* :mod:`repro.simulation.mac` -- a simplified shared-medium link layer:
  per-hop transmission delay from bandwidth + contention, loss injection.
* :mod:`repro.simulation.node` -- mobile nodes carrying protocol agents.
* :mod:`repro.simulation.network` -- the network: nodes + mobility +
  radio + MAC + neighbour discovery + delivery bookkeeping.
* :mod:`repro.simulation.agent` -- the protocol-agent interface all
  multicast protocols (HVDB and baselines) implement.
* :mod:`repro.simulation.stack` -- the pluggable
  :class:`~repro.simulation.stack.ProtocolStack` interface scenario
  assembly resolves through :mod:`repro.registry` (plus the
  one-agent-per-node :class:`~repro.simulation.stack.AgentStack` base).
* :mod:`repro.simulation.traffic` -- CBR multicast sources.
* :mod:`repro.simulation.groups` -- multicast group membership with churn.

Radio and MAC models are registered by name (``unit_disk`` /
``log_distance``, ``csma`` / ``ideal``) so scenarios select them
declaratively and sweep grids can use them as axes.
"""

from repro.simulation.engine import Simulator, Event, PeriodicTimer
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.radio import RadioModel, UnitDiskRadio, LogDistanceRadio
from repro.simulation.mac import MacModel, SimpleCsmaMac
from repro.simulation.node import MobileNode, NodeStats
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.agent import ProtocolAgent
from repro.simulation.stack import ProtocolStack, AgentStack
from repro.simulation.traffic import CbrMulticastSource
from repro.simulation.groups import MulticastGroupManager, GroupEvent

__all__ = [
    "Simulator",
    "Event",
    "PeriodicTimer",
    "Packet",
    "PacketKind",
    "RadioModel",
    "UnitDiskRadio",
    "LogDistanceRadio",
    "MacModel",
    "SimpleCsmaMac",
    "MobileNode",
    "NodeStats",
    "Network",
    "NetworkConfig",
    "ProtocolAgent",
    "ProtocolStack",
    "AgentStack",
    "CbrMulticastSource",
    "MulticastGroupManager",
    "GroupEvent",
]
