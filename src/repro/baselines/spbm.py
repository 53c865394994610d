"""Scalable Position-Based Multicast (SPBM)-style baseline.

Transier et al. [28] aggregate group membership over a square hierarchy
(quad-tree over the deployment area): a node announces its memberships
within its smallest square; aggregated announcements propagate one level
up, so "the further away a region is from an intermediate node, the higher
the level of aggregation".  Data packets carry the set of target squares
and are split as they approach them, with greedy geographic forwarding
between splits.

The paper's criticism -- "because all the nodes in the network are
involved in the membership update, it still cannot scale well in
large-scale MANETs" -- is what experiment E3 quantifies against the HVDB
summary scheme, so the membership announcement traffic here is simulated
faithfully: every node broadcasts its level-0 membership locally, and
aggregated square announcements are flooded within the parent square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.geo.geometry import Point, distance
from repro.registry import register_protocol
from repro.simulation.agent import ProtocolAgent
from repro.simulation.engine import PeriodicTimer
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.stack import AgentStack
from repro.unicast.router import GEO_PROTOCOL, GeoUnicastAgent

SPBM_PROTOCOL = "spbm"

#: square identifier: (level, ix, iy); level 0 = smallest squares
Square = Tuple[int, int, int]


@dataclass
class SpbmConfig:
    """Typed SPBM section of a ``ScenarioConfig`` (grid axes ``spbm.*``)."""

    levels: int = 3                 #: quad-tree depth of the square hierarchy
    announce_period: float = 5.0    #: seconds between membership announcements


class SpbmAgent(ProtocolAgent):
    """Quad-tree membership aggregation + square-addressed multicast forwarding."""

    protocol_name = SPBM_PROTOCOL

    def __init__(
        self,
        levels: int = 3,
        announce_period: float = 5.0,
    ) -> None:
        super().__init__()
        if levels < 1:
            raise ValueError("levels must be at least 1")
        self.levels = levels
        self.announce_period = announce_period
        #: membership table: square -> set of groups known to have members there
        self.square_members: Dict[Square, Set[int]] = {}
        self._seen: Set[Tuple[int, str]] = set()
        self.data_originated = 0
        self.announcements_sent = 0

    # ------------------------------------------------------------------
    # square geometry
    # ------------------------------------------------------------------
    def _square_of(self, position: Point, level: int) -> Square:
        area = self.network.config.area
        cells = 1 << (self.levels - 1 - level)   # level 0 has the most cells
        size_x = area.width / cells
        size_y = area.height / cells
        ix = min(int(position.x // size_x), cells - 1)
        iy = min(int(position.y // size_y), cells - 1)
        return (level, ix, iy)

    def _square_center(self, square: Square) -> Point:
        area = self.network.config.area
        level, ix, iy = square
        cells = 1 << (self.levels - 1 - level)
        size_x = area.width / cells
        size_y = area.height / cells
        return Point((ix + 0.5) * size_x, (iy + 0.5) * size_y)

    def _contains(self, square: Square, position: Point) -> bool:
        return self._square_of(position, square[0]) == square

    # ------------------------------------------------------------------
    # membership announcements
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        PeriodicTimer(
            self.simulator, self.announce_period, self._announce_membership
        )

    def _announce_membership(self) -> None:
        groups = sorted(self.node.groups)
        pos = self.network.position_of(self.node_id)
        square = self._square_of(pos, 0)
        self.square_members.setdefault(square, set()).update(groups)
        packet = Packet(
            kind=PacketKind.CONTROL,
            protocol=SPBM_PROTOCOL,
            msg_type="membership",
            source=self.node_id,
            payload={"square": square, "groups": groups, "origin": self.node_id, "t": self.now},
            size_bytes=16 + 4 * len(groups),
            created_at=self.now,
        )
        self.announcements_sent += 1
        self.node.broadcast(packet)

    def _handle_membership(self, packet: Packet) -> None:
        key = (packet.payload["origin"], f"m{packet.payload['t']}")
        if key in self._seen:
            return
        self._seen.add(key)
        square = tuple(packet.payload["square"])  # type: ignore[assignment]
        groups = set(packet.payload["groups"])
        if groups:
            self.square_members.setdefault(square, set()).update(groups)
            # aggregate upwards: mark every ancestor square as containing the groups
            level, ix, iy = square
            for lvl in range(level + 1, self.levels):
                ix //= 2
                iy //= 2
                self.square_members.setdefault((lvl, ix, iy), set()).update(groups)
        # membership propagates within the parent square only (hierarchical scoping)
        my_pos = self.network.position_of(self.node_id)
        parent_level = min(square[0] + 1, self.levels - 1)
        origin_center = self._square_center(square)
        parent_of_origin = self._square_of(origin_center, parent_level)
        if self._contains(parent_of_origin, my_pos):
            self.node.broadcast(packet)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _geo(self) -> GeoUnicastAgent:
        return self.node.agent(GEO_PROTOCOL)  # type: ignore[return-value]

    def send_multicast(self, group: int, payload, size_bytes: int = 512) -> None:
        members = self.network.group_members(group)
        targets = self._target_squares(group)
        packet = Packet(
            kind=PacketKind.DATA,
            protocol=SPBM_PROTOCOL,
            msg_type="data",
            source=self.node_id,
            group=group,
            payload=payload,
            headers={"squares": [list(s) for s in targets]},
            size_bytes=size_bytes + 6 * len(targets),
            created_at=self.now,
        )
        self.network.register_data_packet(packet, members)
        self.data_originated += 1
        if self.node.is_member(group):
            self.node.deliver_to_application(packet)
        self._forward(packet)

    def _target_squares(self, group: int) -> List[Square]:
        """Smallest-level squares known to contain members of ``group``."""
        return sorted(
            sq for sq, groups in self.square_members.items() if sq[0] == 0 and group in groups
        )

    def _forward(self, packet: Packet) -> None:
        group = packet.group
        squares = [tuple(s) for s in packet.headers.get("squares", [])]
        if not squares:
            # no aggregated knowledge: deliver locally via one broadcast
            self.node.broadcast(packet)
            return
        my_pos = self.network.position_of(self.node_id)
        inside = [s for s in squares if self._contains(s, my_pos)]
        outside = [s for s in squares if not self._contains(s, my_pos)]
        if inside:
            # packet has reached one of its target squares: local broadcast
            copy = packet.copy_for_forwarding()
            copy.headers["squares"] = [list(s) for s in inside]
            copy.headers["terminal"] = True
            self.node.broadcast(copy)
        for square in outside:
            center = self._square_center(square)
            relay = self._closest_node_to(center)
            if relay is None or relay == self.node_id:
                continue
            copy = packet.copy_for_forwarding()
            copy.headers["squares"] = [list(square)]
            self._geo().send(copy, relay)

    def _closest_node_to(self, target: Point) -> Optional[int]:
        """Oracle relay selection: the alive node closest to the square centre."""
        best = None
        best_d = float("inf")
        for node_id, node in self.network.nodes.items():
            if not node.alive:
                continue
            d = distance(self.network.position_of(node_id), target)
            if d < best_d:
                best_d = d
                best = node_id
        return best

    def on_packet(self, packet: Packet, from_node: int) -> None:
        if packet.protocol != SPBM_PROTOCOL:
            return
        if packet.msg_type == "membership":
            self._handle_membership(packet)
            return
        if packet.msg_type != "data":
            return
        if packet.group is not None and self.node.is_member(packet.group):
            self.node.deliver_to_application(packet)
        key = (packet.uid, "data")
        if key in self._seen:
            return
        self._seen.add(key)
        if packet.headers.get("terminal"):
            # final local dissemination inside the target square: one more hop
            my_pos = self.network.position_of(self.node_id)
            squares = [tuple(s) for s in packet.headers.get("squares", [])]
            if any(self._contains(s, my_pos) for s in squares):
                rebroadcast = packet.copy_for_forwarding()
                rebroadcast.headers["terminal"] = False
                self.node.broadcast(rebroadcast)
            return
        self._forward(packet)


@register_protocol(SPBM_PROTOCOL)
class SpbmStack(AgentStack):
    """The registered ``spbm`` stack: quad-tree membership over geo-unicast."""

    name = SPBM_PROTOCOL
    uses_geo_unicast = True
    stat_fields = ("data_originated", "announcements_sent")

    def make_agent(self, config=None) -> SpbmAgent:
        spbm = config.spbm if config is not None else SpbmConfig()
        return SpbmAgent(levels=spbm.levels, announce_period=spbm.announce_period)
