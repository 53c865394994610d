"""The HVDB model and QoS multicast protocol (System S7 -- the paper's contribution).

* :mod:`repro.core.identifiers` -- the four logical identifiers of
  Section 4.1 (CHID, HNID, HID, MNID) and the geographic mapping function
  that reproduces the paper's Figures 2 and 3.
* :mod:`repro.core.hvdb` -- the three-tier HVDB model built from a
  clustering snapshot: per-region incomplete hypercubes, the mesh tier,
  BCH/ICH classification.
* :mod:`repro.core.route_maintenance` -- proactive local logical route
  maintenance (Figure 4) with per-route QoS state (delay, bandwidth).
* :mod:`repro.core.membership` -- summary-based membership update
  (Figure 5): Local-Membership, MNT-Summary, HT-Summary, MT-Summary and
  the designated-broadcaster criteria.
* :mod:`repro.core.multicast_routing` -- logical location-based multicast
  routing (Figure 6): mesh-tier and hypercube-tier multicast trees and
  their packet encapsulation.
* :mod:`repro.core.qos` -- QoS requirements, route feasibility and
  disjoint-route selection.
* :mod:`repro.core.protocol` -- :class:`HVDBProtocolAgent`, the runnable
  per-node protocol, and :class:`HVDBStack`, the registered ``hvdb``
  protocol stack that wires a whole simulated network with clustering +
  geo-unicast + HVDB agents, configured through the typed
  :class:`HVDBConfig` scenario section.
"""

from repro.core.identifiers import LogicalAddressSpace, LogicalAddress
from repro.core.hvdb import HVDBModel, ClusterHeadRole
from repro.core.route_maintenance import (
    LogicalRouteTable,
    LogicalRoute,
    LinkQoS,
)
from repro.core.membership import (
    LocalMembership,
    MNTSummary,
    HTSummary,
    MTSummary,
    BroadcasterCriterion,
    select_designated_broadcaster,
)
from repro.core.multicast_routing import (
    compute_mesh_tree,
    compute_hypercube_tree,
    MulticastForwardingState,
)
from repro.core.qos import QoSRequirement, select_qos_route
from repro.core.protocol import (
    HVDBConfig,
    HVDBParameters,
    HVDBProtocolAgent,
    HVDBStack,
    HVDB_PROTOCOL,
)

__all__ = [
    "LogicalAddressSpace",
    "LogicalAddress",
    "HVDBModel",
    "ClusterHeadRole",
    "LogicalRouteTable",
    "LogicalRoute",
    "LinkQoS",
    "LocalMembership",
    "MNTSummary",
    "HTSummary",
    "MTSummary",
    "BroadcasterCriterion",
    "select_designated_broadcaster",
    "compute_mesh_tree",
    "compute_hypercube_tree",
    "MulticastForwardingState",
    "QoSRequirement",
    "select_qos_route",
    "HVDBConfig",
    "HVDBParameters",
    "HVDBProtocolAgent",
    "HVDBStack",
    "HVDB_PROTOCOL",
]
