"""The runnable HVDB QoS multicast protocol.

:class:`HVDBProtocolAgent` implements, per node, the three algorithms of
the paper (Figures 4-6) on top of the clustering service, the logical
address space and the geographic unicast substrate:

* periodic **Local-Membership** reports from members to their CH and
  **MNT-Summary** / **HT-Summary** propagation with a designated
  network-wide broadcaster (Figure 5);
* periodic **route-maintenance beacons** between 1-logical-hop neighbour
  CHs carrying delay/bandwidth state (Figure 4);
* **logical location-based multicast forwarding** of data packets along a
  mesh-tier tree between hypercubes and a hypercube-tier tree inside each
  hypercube, with local delivery in every cluster that has members
  (Figure 6), including fail-over to alternative logical routes when a CH
  on the computed tree has disappeared.

:class:`HVDBStack` wires a whole simulated network: the VC grid, the
logical address space, the clustering service, one
:class:`~repro.unicast.router.GeoUnicastAgent` and one
:class:`HVDBProtocolAgent` per node, and keeps the shared
:class:`~repro.core.hvdb.HVDBModel` up to date as clusters change.  It is
the registered ``hvdb`` :class:`~repro.simulation.stack.ProtocolStack`;
scenario assembly configures it through the typed :class:`HVDBConfig`
section of a ``ScenarioConfig`` (grid axes ``hvdb.dimension``,
``hvdb.params``, ...).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.clustering.service import ClusteringService, ClusterSnapshot
from repro.core.hvdb import HVDBModel
from repro.core.identifiers import LogicalAddressSpace, MeshCoord
from repro.core.membership import (
    BroadcasterCriterion,
    HTSummary,
    LocalMembership,
    MNTSummary,
    MTSummary,
    select_designated_broadcaster,
)
from repro.core.multicast_routing import MulticastForwardingState
from repro.core.qos import QoSRequirement, select_qos_route
from repro.core.route_maintenance import LinkQoS, LogicalRoute, LogicalRouteTable
from repro.geo.grid import VirtualCircleGrid
from repro.hypercube.multicast_tree import MulticastTree
from repro.registry import register_protocol
from repro.simulation.agent import ProtocolAgent
from repro.simulation.engine import PeriodicTimer
from repro.simulation.network import Network
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.stack import ProtocolStack
from repro.unicast.router import GEO_PROTOCOL, GeoUnicastAgent

#: Protocol identifier of the HVDB multicast protocol.
HVDB_PROTOCOL = "hvdb"


@dataclass
class HVDBParameters:
    """Tunable protocol parameters (periods in seconds)."""

    local_membership_period: float = 3.0
    mnt_summary_period: float = 6.0
    ht_summary_period: float = 12.0
    route_beacon_period: float = 3.0
    max_logical_hops: int = 4
    routes_per_destination: int = 3
    route_expiry: float = 20.0
    broadcaster_criterion: BroadcasterCriterion = BroadcasterCriterion.NEIGHBORHOOD_MEMBERS
    report_expiry: float = 12.0
    data_payload_overhead: int = 48     #: bytes added by tree encapsulation


@dataclass
class HVDBConfig:
    """Typed HVDB section of a ``ScenarioConfig`` (grid axes ``hvdb.*``).

    Describes the logical structure (virtual-circle grid, hypercube
    dimension), clustering cadence, protocol timer parameters and
    per-group QoS requirements of an HVDB scenario.
    """

    vc_cols: int = 8                    #: virtual-circle grid columns
    vc_rows: int = 8                    #: virtual-circle grid rows
    dimension: int = 4                  #: hypercube dimension
    clustering_interval: float = 2.0    #: seconds between CH re-elections
    clustering_hysteresis: float = 0.5  #: score margin before a CH hand-over
    params: Optional[HVDBParameters] = None   #: protocol timers (None = defaults)
    qos_requirements: Dict[int, QoSRequirement] = field(default_factory=dict)


@dataclass
class HVDBAgentStats:
    """Per-agent protocol counters."""

    local_membership_sent: int = 0
    mnt_summaries_sent: int = 0
    ht_summaries_broadcast: int = 0
    route_beacons_sent: int = 0
    data_originated: int = 0
    data_forwarded_mesh: int = 0
    data_forwarded_cube: int = 0
    data_delivered_local: int = 0
    failovers: int = 0
    qos_rejections: int = 0


class HVDBProtocolAgent(ProtocolAgent):
    """Per-node implementation of the HVDB QoS multicast protocol."""

    protocol_name = HVDB_PROTOCOL

    def __init__(self, stack: "HVDBStack", params: Optional[HVDBParameters] = None) -> None:
        super().__init__()
        self.stack = stack
        self.params = params or stack.params
        self.stats = HVDBAgentStats()
        # member-side state
        self.local_membership: Optional[LocalMembership] = None
        # CH-side state
        self.member_reports: Dict[int, Tuple[LocalMembership, float]] = {}
        self.mnt_summaries: Dict[int, Tuple[MNTSummary, float]] = {}
        self.mt_summary = MTSummary()
        self.route_table: Optional[LogicalRouteTable] = None
        self.forwarding = MulticastForwardingState()
        self._timers: List[PeriodicTimer] = []
        self._seen_data: Set[Tuple[int, str]] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.local_membership = LocalMembership(self.node_id, set(self.node.groups))
        p = self.params
        jitter_rng = self.stack.rng
        self._timers = [
            PeriodicTimer(
                self.simulator, p.local_membership_period, self._send_local_membership,
                jitter=0.5, rng=jitter_rng,
            ),
            PeriodicTimer(
                self.simulator, p.route_beacon_period, self._send_route_beacons,
                jitter=0.3, rng=jitter_rng,
            ),
            PeriodicTimer(
                self.simulator, p.mnt_summary_period, self._send_mnt_summary,
                jitter=0.5, rng=jitter_rng,
            ),
            PeriodicTimer(
                self.simulator, p.ht_summary_period, self._maybe_broadcast_ht_summary,
                jitter=1.0, rng=jitter_rng,
            ),
        ]

    def on_group_join(self, group: int) -> None:
        if self.local_membership is None:
            self.local_membership = LocalMembership(self.node_id, set())
        self.local_membership.join(group)
        # event-triggered report (Figure 5, step 1: membership is updated on
        # every join/leave, not only at the periodic report)
        if self._timers:
            self._send_local_membership()

    def on_group_leave(self, group: int) -> None:
        if self.local_membership is not None:
            self.local_membership.leave(group)
        if self._timers:
            self._send_local_membership()

    # ------------------------------------------------------------------
    # role helpers
    # ------------------------------------------------------------------
    @property
    def model(self) -> HVDBModel:
        return self.stack.model

    def is_cluster_head(self) -> bool:
        return self.model.is_cluster_head(self.node_id)

    def _my_ch(self) -> Optional[int]:
        """The CH serving this node (home cluster, or an overlapping one)."""
        return self.stack.clustering.serving_head(self.node_id)

    def _geo(self) -> GeoUnicastAgent:
        return self.node.agent(GEO_PROTOCOL)  # type: ignore[return-value]

    def _ensure_route_table(self) -> LogicalRouteTable:
        address = self.model.address_of_ch(self.node_id)
        if self.route_table is None or self.route_table.own_hnid != address.hnid:
            self.route_table = LogicalRouteTable(
                own_hnid=address.hnid,
                max_logical_hops=self.params.max_logical_hops,
                routes_per_destination=self.params.routes_per_destination,
                expiry=self.params.route_expiry,
            )
        return self.route_table

    def on_model_update(self) -> None:
        """Called by the stack whenever the HVDB model is rebuilt."""
        self.forwarding.invalidate_all()

    # ------------------------------------------------------------------
    # Figure 5, steps 1-2: Local-Membership reporting
    # ------------------------------------------------------------------
    def _send_local_membership(self) -> None:
        if self.local_membership is None:
            return
        self.local_membership.groups = set(self.node.groups)
        ch = self._my_ch()
        if ch is None:
            return
        packet = Packet(
            kind=PacketKind.CONTROL,
            protocol=HVDB_PROTOCOL,
            msg_type="local-membership",
            source=self.node_id,
            destination=ch,
            payload=self.local_membership.as_payload(),
            size_bytes=self.local_membership.serialized_size(),
            created_at=self.now,
        )
        self.stats.local_membership_sent += 1
        if ch == self.node_id:
            self._handle_local_membership(packet)
        else:
            self._geo().send(packet, ch)

    def _handle_local_membership(self, packet: Packet) -> None:
        payload = packet.payload
        report = LocalMembership(int(payload["node"]), set(payload["groups"]))
        self.member_reports[report.node_id] = (report, self.now)

    def _current_member_reports(self) -> List[LocalMembership]:
        """Non-expired Local-Membership reports plus this CH's own membership."""
        expiry = self.params.report_expiry
        reports = [
            report
            for report, received_at in self.member_reports.values()
            if self.now - received_at <= expiry and report.node_id != self.node_id
        ]
        own = LocalMembership(self.node_id, set(self.node.groups))
        reports.append(own)
        return reports

    # ------------------------------------------------------------------
    # Figure 5, step 3: MNT-Summary dissemination within the hypercube
    # ------------------------------------------------------------------
    def _send_mnt_summary(self) -> None:
        if not self.is_cluster_head():
            return
        address = self.model.address_of_ch(self.node_id)
        summary = MNTSummary.from_local_reports(
            self.node_id, address.hnid, address.hid, self._current_member_reports()
        )
        self.mnt_summaries[address.hnid] = (summary, self.now)
        peers = [ch for ch in self.model.chs_in_hypercube(address.hid) if ch != self.node_id]
        payload = summary.as_payload()
        for peer in peers:
            packet = Packet(
                kind=PacketKind.CONTROL,
                protocol=HVDB_PROTOCOL,
                msg_type="mnt-summary",
                source=self.node_id,
                destination=peer,
                payload=dict(payload),
                size_bytes=summary.serialized_size(),
                created_at=self.now,
            )
            self._geo().send(packet, peer)
        self.stats.mnt_summaries_sent += 1
        # keep the local MT view fresh from the local hypercube's data too
        self._refresh_own_mt_entry(address.hid)

    def _handle_mnt_summary(self, packet: Packet) -> None:
        if not self.is_cluster_head():
            return
        summary = MNTSummary.from_payload(packet.payload)
        my_hid = self.model.address_of_ch(self.node_id).hid
        if summary.hid != my_hid:
            return
        self.mnt_summaries[summary.hnid] = (summary, self.now)
        for group in summary.groups():
            self.forwarding.invalidate_group(group)

    def _collected_mnt_summaries(self, hid: int) -> Dict[int, MNTSummary]:
        expiry = self.params.report_expiry + self.params.mnt_summary_period
        return {
            hnid: summary
            for hnid, (summary, received_at) in self.mnt_summaries.items()
            if summary.hid == hid and self.now - received_at <= expiry
        }

    def _local_ht_summary(self, hid: int) -> HTSummary:
        return HTSummary.from_mnt_summaries(hid, self._collected_mnt_summaries(hid).values())

    def _refresh_own_mt_entry(self, hid: int) -> None:
        ht = self._local_ht_summary(hid)
        mesh_coord = self.stack.space.mesh_of_hid(hid)
        self.mt_summary.update_from_ht(ht, mesh_coord)

    # ------------------------------------------------------------------
    # Figure 5, step 4: designated CH broadcasts the HT-Summary
    # ------------------------------------------------------------------
    def _maybe_broadcast_ht_summary(self) -> None:
        if not self.is_cluster_head():
            return
        address = self.model.address_of_ch(self.node_id)
        summaries = self._collected_mnt_summaries(address.hid)
        if not summaries:
            return
        cube = self.model.hypercube(address.hid)
        neighbors = {
            hnid: cube.neighbors(hnid) if hnid in cube else []
            for hnid in summaries.keys()
        }
        designated = select_designated_broadcaster(
            summaries, self.params.broadcaster_criterion, neighbors
        )
        self._refresh_own_mt_entry(address.hid)
        if designated != address.hnid:
            return
        ht = self._local_ht_summary(address.hid)
        if not ht.groups():
            return
        payload = ht.as_payload()
        size = ht.serialized_size()
        self.stats.ht_summaries_broadcast += 1
        # Network-wide dissemination restricted to the backbone: one copy to
        # the entry CH of every other actual hypercube, which relays to the
        # CHs inside its hypercube.
        my_position = self.network.position_of(self.node_id)
        for hid in self.model.actual_hypercube_ids():
            if hid == address.hid:
                # distribute directly to the CHs of the local hypercube
                self._distribute_ht_summary_locally(payload, size, address.hid)
                continue
            entry = self.model.entry_ch(hid, towards=my_position)
            if entry is None:
                continue
            packet = Packet(
                kind=PacketKind.CONTROL,
                protocol=HVDB_PROTOCOL,
                msg_type="ht-summary",
                source=self.node_id,
                destination=entry,
                payload=dict(payload),
                headers={"relay": True},
                size_bytes=size,
                created_at=self.now,
            )
            self._geo().send(packet, entry)

    def _distribute_ht_summary_locally(self, payload: Dict[str, object], size: int, exclude_hid_source: Optional[int] = None) -> None:
        """Relay a received (or locally produced) HT-Summary to the CHs of my hypercube."""
        my_hid = self.model.address_of_ch(self.node_id).hid
        for peer in self.model.chs_in_hypercube(my_hid):
            if peer == self.node_id:
                continue
            packet = Packet(
                kind=PacketKind.CONTROL,
                protocol=HVDB_PROTOCOL,
                msg_type="ht-summary",
                source=self.node_id,
                destination=peer,
                payload=dict(payload),
                headers={"relay": False},
                size_bytes=size,
                created_at=self.now,
            )
            self._geo().send(packet, peer)

    def _handle_ht_summary(self, packet: Packet) -> None:
        if not self.is_cluster_head():
            return
        ht = HTSummary.from_payload(packet.payload)
        mesh_coord = self.stack.space.mesh_of_hid(ht.hid)
        self.mt_summary.update_from_ht(ht, mesh_coord)
        for group in ht.groups():
            self.forwarding.invalidate_group(group)
        if packet.headers.get("relay"):
            self._distribute_ht_summary_locally(packet.payload, packet.size_bytes)

    # ------------------------------------------------------------------
    # Figure 4: proactive local logical route maintenance
    # ------------------------------------------------------------------
    def _send_route_beacons(self) -> None:
        if not self.is_cluster_head():
            return
        table = self._ensure_route_table()
        table.prune_expired(self.now)
        address = self.model.address_of_ch(self.node_id)
        neighbors = self.model.logical_neighbors_of_ch(self.node_id)
        # (path, delay, bandwidth) per route; paths are immutable tuples
        advertisement = [
            (path, qos.delay, qos.bandwidth) for path, qos in table.advertisement()
        ]
        size = 16 + 14 * len(advertisement)
        for peer in neighbors:
            packet = Packet(
                kind=PacketKind.CONTROL,
                protocol=HVDB_PROTOCOL,
                msg_type="route-beacon",
                source=self.node_id,
                destination=peer,
                payload={
                    "hnid": address.hnid,
                    "hid": address.hid,
                    "sent_at": self.now,
                    "routes": advertisement,
                },
                size_bytes=size,
                created_at=self.now,
            )
            self._geo().send(packet, peer)
        if neighbors:
            self.stats.route_beacons_sent += 1

    def _handle_route_beacon(self, packet: Packet) -> None:
        if not self.is_cluster_head():
            return
        payload = packet.payload
        my_address = self.model.address_of_ch(self.node_id)
        neighbor_hnid = int(payload["hnid"])
        # a beacon sent just before a model rebuild may reach the node
        # that now holds the sender's hnid: a CH has no link to itself
        if payload["hid"] != my_address.hid or neighbor_hnid == my_address.hnid:
            return
        table = self._ensure_route_table()
        now = self.now
        # measure the logical-link QoS from the beacon itself
        delay = max(1e-4, now - float(payload["sent_at"]))
        contenders = max(1, len(self.network.neighbor_positions(self.node_id)))
        bandwidth = self.network.config.mac.bandwidth_bps / contenders \
            if hasattr(self.network.config.mac, "bandwidth_bps") else 1e6
        link = LinkQoS(delay=delay, bandwidth=bandwidth, measured_at=now)
        table.update_neighbor(neighbor_hnid, link)
        advertised = [
            LogicalRoute(path, LinkQoS(path_delay, path_bandwidth, now))
            for path, path_delay, path_bandwidth in payload["routes"]
        ]
        table.integrate_advertisement(neighbor_hnid, advertised, now)

    # ------------------------------------------------------------------
    # Figure 6: data path
    # ------------------------------------------------------------------
    def send_multicast(self, group: int, payload, size_bytes: int = 512) -> None:
        """Application entry point: multicast ``payload`` to ``group`` (Figure 6, step 1)."""
        members = self.network.group_members(group)
        packet = Packet(
            kind=PacketKind.DATA,
            protocol=HVDB_PROTOCOL,
            msg_type="data",
            source=self.node_id,
            group=group,
            payload=payload,
            headers={"stage": "to-source-ch"},
            size_bytes=size_bytes + self.params.data_payload_overhead,
            created_at=self.now,
        )
        self.network.register_data_packet(packet, members)
        self.stats.data_originated += 1
        self._maybe_deliver_locally(packet)
        ch = self._my_ch()
        if ch is None:
            # no CH in this VC: fall back to handing the packet to the
            # nearest CH in the backbone, if any exists
            ch = self._nearest_backbone_ch()
            if ch is None:
                return
        if ch == self.node_id:
            self._source_ch_forward(packet)
        else:
            self._geo().send(packet, ch)

    def _nearest_backbone_ch(self) -> Optional[int]:
        heads = self.model.cluster_heads()
        if not heads:
            return None
        my_pos = self.network.position_of(self.node_id)
        return min(
            heads,
            key=lambda ch: (
                (self.network.position_of(ch).x - my_pos.x) ** 2
                + (self.network.position_of(ch).y - my_pos.y) ** 2
            ),
        )

    # -- packet reception ---------------------------------------------------
    def on_packet(self, packet: Packet, from_node: int) -> None:
        if packet.protocol != HVDB_PROTOCOL:
            return
        handler = {
            "local-membership": self._handle_local_membership,
            "mnt-summary": self._handle_mnt_summary,
            "ht-summary": self._handle_ht_summary,
            "route-beacon": self._handle_route_beacon,
        }.get(packet.msg_type)
        if handler is not None:
            handler(packet)
            return
        if packet.msg_type == "data":
            self._handle_data(packet, from_node)

    def _handle_data(self, packet: Packet, from_node: int) -> None:
        self._maybe_deliver_locally(packet)
        stage = packet.headers.get("stage", "local")
        if not self.is_cluster_head():
            return
        key = (packet.uid, stage)
        if key in self._seen_data:
            return
        self._seen_data.add(key)
        if stage == "to-source-ch":
            self._source_ch_forward(packet)
        elif stage == "mesh":
            self._mesh_entry_forward(packet)
        elif stage == "cube":
            self._cube_forward(packet)
        elif stage == "local-unicast":
            # explicitly addressed to a member in this cluster; local
            # delivery already happened in _maybe_deliver_locally
            pass

    def _maybe_deliver_locally(self, packet: Packet) -> None:
        if packet.group is not None and self.node.is_member(packet.group):
            self.node.deliver_to_application(packet)

    # -- Figure 6 step 2: source CH computes the mesh-tier tree -------------
    def _source_ch_forward(self, packet: Packet) -> None:
        group = packet.group
        if group is None:
            return
        address = self.model.address_of_ch(self.node_id)
        mesh = self.model.mesh()
        my_mesh = address.mnid
        if my_mesh not in mesh:
            return
        self._refresh_own_mt_entry(address.hid)
        tree = self.forwarding.mesh_tree(mesh, my_mesh, self.mt_summary, group)
        packet.headers["mesh_tree"] = tree.serialize()
        packet.headers["stage"] = "mesh"
        packet.headers["mesh_node"] = list(my_mesh)
        self._mesh_entry_forward(packet)

    # -- Figure 6 steps 3-4: forwarding between and within hypercubes -------
    def _mesh_entry_forward(self, packet: Packet) -> None:
        """Called at the CH where the packet enters a hypercube (or at the source CH)."""
        from repro.hypercube.mesh import MeshMulticastTree

        group = packet.group
        if group is None:
            return
        tree_data = packet.headers.get("mesh_tree")
        if tree_data is None:
            return
        tree = MeshMulticastTree.deserialize(tree_data)
        my_mesh = self.model.address_of_ch(self.node_id).mnid
        children = tree.children_of(my_mesh)
        my_position = self.network.position_of(self.node_id)
        for child in children:
            hid = self.stack.space.hid_of_mesh(child)
            entry = self.model.entry_ch(hid, towards=my_position)
            if entry is None:
                continue
            copy = packet.copy_for_forwarding()
            copy.headers["stage"] = "mesh"
            copy.headers["mesh_node"] = list(child)
            copy.logical_hops += 1
            self.stats.data_forwarded_mesh += 1
            self._geo().send(copy, entry)
        # within this hypercube: switch to the hypercube-tier tree
        self._start_cube_stage(packet)

    def _start_cube_stage(self, packet: Packet) -> None:
        group = packet.group
        address = self.model.address_of_ch(self.node_id)
        cube = self.model.hypercube(address.hid)
        ht = self._local_ht_summary(address.hid)
        tree = self.forwarding.hypercube_tree(cube, address.hnid, ht, group)
        copy = packet.copy_for_forwarding()
        copy.headers["stage"] = "cube"
        copy.headers["cube_tree"] = tree.serialize()
        copy.headers["cube_hid"] = address.hid
        self._cube_forward(copy)

    def _cube_forward(self, packet: Packet) -> None:
        """Forward along the encapsulated hypercube-tier multicast tree."""
        group = packet.group
        if group is None:
            return
        tree_data = packet.headers.get("cube_tree")
        hid = packet.headers.get("cube_hid")
        if tree_data is None or hid is None:
            return
        address = self.model.address_of_ch(self.node_id)
        if address.hid != hid:
            return
        tree = MulticastTree.deserialize(tree_data)
        children = tree.children_of(address.hnid)
        for child_hnid in children:
            target_ch = self.model.chid_at(hid, child_hnid)
            if target_ch is None or not self.network.node(target_ch).alive:
                target_ch = self._failover_target(hid, child_hnid, tree, group)
                if target_ch is None:
                    continue
                self.stats.failovers += 1
            copy = packet.copy_for_forwarding()
            copy.logical_hops += 1
            self.stats.data_forwarded_cube += 1
            self._record_route_usage(address.hnid, child_hnid, group)
            self._geo().send(copy, target_ch)
        self._deliver_to_cluster_members(packet)

    def _failover_target(
        self, hid: int, missing_hnid: int, tree: MulticastTree, group: int
    ) -> Optional[int]:
        """Fail-over when the CH at ``missing_hnid`` has disappeared.

        The availability mechanism of the paper: the incomplete hypercube
        still offers alternative logical routes, so the subtree behind the
        missing node is re-attached through a present CH.  We pick the CH
        of the closest (Hamming-wise) present hypercube node that serves a
        member in the orphaned subtree.
        """
        # collect the members in the orphaned subtree
        orphaned: List[int] = []
        stack = [missing_hnid]
        while stack:
            hnid = stack.pop()
            if hnid in tree.members and hnid != missing_hnid:
                orphaned.append(hnid)
            stack.extend(tree.children_of(hnid))
        cube = self.model.hypercube(hid)
        candidates = [h for h in orphaned if h in cube]
        if not candidates:
            return None
        my_hnid = self.model.address_of_ch(self.node_id).hnid
        best = min(candidates, key=lambda h: bin(h ^ my_hnid).count("1"))
        return self.model.chid_at(hid, best)

    def _record_route_usage(self, from_hnid: int, to_hnid: int, group: int) -> None:
        """Exercise the QoS route table for the logical hop being taken."""
        if self.route_table is None:
            return
        requirement = self.stack.qos_requirements.get(group)
        if requirement is None:
            return
        routes = self.route_table.routes_to(to_hnid)
        if not routes:
            return
        chosen = select_qos_route(routes, requirement)
        if chosen is None:
            self.stats.qos_rejections += 1

    # -- Figure 6 step 6: local delivery within the cluster ------------------
    def _deliver_to_cluster_members(self, packet: Packet) -> None:
        group = packet.group
        if group is None:
            return
        local_members = [
            report.node_id
            for report, received_at in self.member_reports.values()
            if group in report.groups
            and self.now - received_at <= self.params.report_expiry
            and report.node_id != self.node_id
        ]
        if self.node.is_member(group):
            self.node.deliver_to_application(packet)
        if not local_members:
            return
        self.stats.data_delivered_local += 1
        # one local broadcast reaches members within radio range …
        broadcast_copy = packet.copy_for_forwarding()
        broadcast_copy.headers["stage"] = "local"
        self.node.broadcast(broadcast_copy)
        # … and members currently out of range get a directed copy
        neighbors = self.network.neighbor_positions(self.node_id)
        for member in local_members:
            if member in neighbors:
                continue
            copy = packet.copy_for_forwarding()
            copy.headers["stage"] = "local-unicast"
            copy.destination = member
            self._geo().send(copy, member)


@register_protocol(HVDB_PROTOCOL)
class HVDBStack(ProtocolStack):
    """Builds and owns the shared HVDB state of one simulated network.

    The constructor is the direct-wiring path (unit tests build a
    network by hand and call ``install(network)``): it takes an
    :class:`HVDBConfig` and/or individual field overrides, so the
    defaults live in :class:`HVDBConfig` alone.  When scenario assembly
    calls ``install(network, config)``, the ``ScenarioConfig``'s HVDB
    section (and seed) replaces the constructor settings.
    """

    name = HVDB_PROTOCOL

    def __init__(
        self,
        config: Optional[HVDBConfig] = None,
        seed: Optional[int] = None,
        **overrides,
    ) -> None:
        section = config or HVDBConfig()
        if overrides:       # individual HVDBConfig fields, e.g. dimension=3
            section = dataclasses.replace(section, **overrides)
        self.network: Optional[Network] = None
        self.seed = seed
        self.agents: Dict[int, HVDBProtocolAgent] = {}
        self.model_rebuilds = 0
        self._apply_section(section)

    def _apply_section(self, section: HVDBConfig) -> None:
        self.vc_cols = section.vc_cols
        self.vc_rows = section.vc_rows
        self.dimension = section.dimension
        self.clustering_interval = section.clustering_interval
        self.clustering_hysteresis = section.clustering_hysteresis
        self.params = section.params or HVDBParameters()
        self.qos_requirements: Dict[int, QoSRequirement] = dict(
            section.qos_requirements or {}
        )

    # ------------------------------------------------------------------
    def install(self, network: Network, config=None) -> None:
        """Wire the shared HVDB state and attach agents to every node.

        ``config`` is a ``ScenarioConfig`` whose :class:`HVDBConfig`
        section (and seed) replaces the constructor settings; ``None``
        keeps them (the direct-wiring path).
        """
        if config is not None:
            self._apply_section(config.hvdb)
            self.seed = config.seed
        self.network = network
        self.grid = VirtualCircleGrid(network.config.area, self.vc_cols, self.vc_rows)
        self.space = LogicalAddressSpace(self.grid, self.dimension)
        self.clustering = ClusteringService(
            network,
            self.grid,
            update_interval=self.clustering_interval,
            hysteresis=self.clustering_hysteresis,
        )
        self.rng = random.Random(self.seed)
        self.model = HVDBModel(self.space, self.clustering.snapshot())
        self.clustering.add_listener(self._on_cluster_update)
        for node in network.nodes.values():
            if not node.has_agent(GEO_PROTOCOL):
                node.attach_agent(GeoUnicastAgent())
            agent = HVDBProtocolAgent(self, self.params)
            node.attach_agent(agent)
            self.agents[node.node_id] = agent

    def start(self) -> None:
        """Start clustering updates and the network (agents included)."""
        self.clustering.start()
        self.network.start()

    def backbone_nodes(self) -> List[int]:
        """The cluster heads: the virtual dynamic backbone."""
        return self.model.cluster_heads()

    # ------------------------------------------------------------------
    def _on_cluster_update(self, snapshot: ClusterSnapshot) -> None:
        self.model = HVDBModel(self.space, snapshot)
        self.model_rebuilds += 1
        for agent in self.agents.values():
            agent.on_model_update()

    # ------------------------------------------------------------------
    # aggregate statistics
    # ------------------------------------------------------------------
    def aggregate_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {
            "local_membership_sent": 0,
            "mnt_summaries_sent": 0,
            "ht_summaries_broadcast": 0,
            "route_beacons_sent": 0,
            "data_originated": 0,
            "data_forwarded_mesh": 0,
            "data_forwarded_cube": 0,
            "data_delivered_local": 0,
            "failovers": 0,
            "qos_rejections": 0,
        }
        for agent in self.agents.values():
            stats = agent.stats
            for key in totals:
                totals[key] += getattr(stats, key)
        totals["model_rebuilds"] = self.model_rebuilds
        totals["cluster_head_changes"] = self.clustering.head_changes
        return totals
