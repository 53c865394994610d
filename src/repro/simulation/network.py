"""The simulated MANET: nodes + mobility + radio + MAC + bookkeeping.

The :class:`Network` owns the simulation kernel, moves nodes according to
the configured mobility model, answers neighbourhood queries through a
spatial hash, carries out physical transmissions (applying radio reception
probability, MAC delay and loss) and keeps the global delivery ledger the
metrics layer reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import hypot
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.geo.area import Area
from repro.geo.geometry import Point, Vector
from repro.geo.grid import SpatialHash
from repro.mobility.base import MobilityModel
from repro.registry import MACS, RADIOS
from repro.simulation.engine import PeriodicTimer, Simulator
from repro.simulation.mac import MacModel
from repro.simulation.node import MobileNode
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.radio import RadioModel

#: registered names resolved when a NetworkConfig omits radio/mac
DEFAULT_RADIO = "unit_disk"
DEFAULT_MAC = "csma"

#: neighbour mapping of a node that is dead or unknown
_NO_NEIGHBORS: Mapping[int, Point] = MappingProxyType({})


@dataclass
class NetworkConfig:
    """Static configuration of a simulated network.

    ``radio`` and ``mac`` are model *instances* (scenario assembly builds
    them from the registered names in ``ScenarioConfig``); left unset,
    they resolve through the :mod:`repro.registry` defaults
    (:data:`DEFAULT_RADIO` / :data:`DEFAULT_MAC`) rather than hard-coding
    any concrete class here.
    """

    area: Area
    radio: Optional[RadioModel] = None
    mac: Optional[MacModel] = None
    mobility_step: float = 1.0       #: seconds between mobility updates
    seed: Optional[int] = None       #: seed for loss/jitter randomness
    max_packet_hops: int = 64        #: safety TTL on physical hops
    unicast_retries: int = 3         #: link-layer ARQ retries per unicast frame

    def __post_init__(self) -> None:
        # bootstrap=False: the default entries are registered by
        # radio.py/mac.py, imported above -- resolving them must not pull
        # the experiments layer into bare simulation-object construction
        if self.radio is None:
            self.radio = RADIOS.get(DEFAULT_RADIO, bootstrap=False)(None)
        if self.mac is None:
            self.mac = MACS.get(DEFAULT_MAC, bootstrap=False)(None)


@dataclass
class DeliveryRecord:
    """Ledger entry for one originated multicast data packet."""

    uid: int
    group: int
    source: int
    sent_at: float
    intended: Set[int]
    delivered: Dict[int, float] = field(default_factory=dict)

    def delays(self) -> List[float]:
        return [t - self.sent_at for t in self.delivered.values()]


@dataclass
class NetworkStats:
    """Aggregate transmission counters (physical transmissions)."""

    transmissions: int = 0
    transmitted_bytes: int = 0
    control_transmissions: int = 0
    control_bytes: int = 0
    data_transmissions: int = 0
    data_bytes: int = 0
    receptions: int = 0
    drops_out_of_range: int = 0
    drops_loss: int = 0
    drops_ttl: int = 0
    drops_duty_cycle: int = 0        #: frames the MAC refused (duty-cycle budget)
    airtime_seconds: float = 0.0     #: total medium occupancy, retries included


class Network:
    """A mobile ad hoc network under simulation."""

    def __init__(
        self,
        config: NetworkConfig,
        mobility: MobilityModel,
        simulator: Optional[Simulator] = None,
    ) -> None:
        self.config = config
        self.mobility = mobility
        self.simulator = simulator or Simulator()
        self.rng = random.Random(config.seed)
        self.nodes: Dict[int, MobileNode] = {}
        self.stats = NetworkStats()
        self.deliveries: Dict[int, DeliveryRecord] = {}
        self._neighbor_cache: Optional[Dict[int, Mapping[int, Point]]] = None
        self._started = False

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def add_node(self, node: MobileNode) -> MobileNode:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        if node.node_id not in self.mobility.node_ids:
            raise ValueError(
                f"node {node.node_id} has no mobility state; "
                "create the mobility model with all node ids first"
            )
        node.bind_network(self)
        self.nodes[node.node_id] = node
        return node

    def node(self, node_id: int) -> MobileNode:
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # positions / neighbours
    # ------------------------------------------------------------------
    def position_of(self, node_id: int) -> Point:
        return self.mobility.position(node_id)

    def velocity_of(self, node_id: int) -> Vector:
        return self.mobility.velocity(node_id)

    def neighbors_of(self, node_id: int) -> List[int]:
        """Alive nodes currently within radio range of ``node_id``, as a fresh list."""
        return list(self.neighbor_positions(node_id))

    def neighbor_positions(self, node_id: int) -> Mapping[int, Point]:
        """``{neighbour: position}`` of ``node_id``, in :meth:`neighbors_of` order.

        The mapping is shared and read-only: it is built once per mobility
        tick (and after :meth:`fail_nodes`) and handed to every caller
        until then.
        """
        table = self._neighbor_cache
        if table is None:
            table = self._neighbor_table()
        return table.get(node_id, _NO_NEIGHBORS)

    def _invalidate_neighbors(self) -> None:
        self._neighbor_cache = None

    def _neighbor_table(self) -> Dict[int, Mapping[int, Point]]:
        if self._neighbor_cache is not None:
            return self._neighbor_cache
        radio = self.config.radio
        # RadioModel.in_range, inline: the one disc test every radio uses
        reach = radio.nominal_range + 1e-9
        index: SpatialHash[Tuple[int, Point]] = SpatialHash(radio.nominal_range)
        position = self.mobility.position
        positions: Dict[int, Point] = {}
        for node_id, node in self.nodes.items():
            if not node.alive:
                continue
            pos = positions[node_id] = position(node_id)
            index.insert((node_id, pos), pos)
        # nodes in one cell share their candidates: join them once per cell
        cell_candidates: Dict[Tuple[int, int], List[Tuple[int, Point]]] = {}
        table: Dict[int, Mapping[int, Point]] = {}
        for node_id, pos in positions.items():
            cell = index.cell_of(pos)
            candidates = cell_candidates.get(cell)
            if candidates is None:
                candidates = cell_candidates[cell] = index.candidates(pos)
            x, y = pos.x, pos.y
            table[node_id] = MappingProxyType({
                other: other_pos
                for other, other_pos in candidates
                if other != node_id and hypot(x - other_pos.x, y - other_pos.y) <= reach
            })
        self._neighbor_cache = table
        return table

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start mobility updates and notify every agent."""
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        PeriodicTimer(
            self.simulator,
            self.config.mobility_step,
            self._mobility_tick,
            initial_delay=self.config.mobility_step,
            priority=-10,
        )
        for node in self.nodes.values():
            for agent in node.agents:
                agent.on_start()

    def _mobility_tick(self) -> None:
        self.mobility.advance(self.config.mobility_step)
        self._invalidate_neighbors()

    # ------------------------------------------------------------------
    # physical transmission
    # ------------------------------------------------------------------
    def transmit(
        self, sender: int, packet: Packet, destination: Optional[int] = None
    ) -> None:
        """Carry out one physical transmission (broadcast or unicast).

        The MAC resolves the frame into a :class:`~repro.simulation.mac.
        TxPlan` (delay, loss probability, airtime, or an outright
        duty-cycle denial); the radio is told about the frame's on-air
        interval before reception at each candidate receiver is decided,
        so interference-aware radios can hold every concurrent frame
        against it; a radio that hears its whole disc (see
        :attr:`RadioModel.hears_whole_disc`) is neither told nor asked.
        A broadcast is fire-and-forget: one attempt per neighbour, so its
        receptions share ``delay`` and go to the engine as one fan-out
        entry, and they share one received frame, which every receiver
        must treat as read-only (see :class:`Packet`).  A
        unicast frame gets link-layer ARQ (802.11-style retries): up to
        ``1 + unicast_retries`` attempts, and its one receiver gets a
        copy of its own after the summed delays.  ``packet`` itself is
        never written.
        """
        sender_node = self.nodes[sender]
        if not sender_node.alive:
            return
        config = self.config
        stats = self.stats
        if packet.hops >= config.max_packet_hops:
            stats.drops_ttl += 1
            return
        sender_pos = self.mobility.position(sender)
        neighbors = self.neighbor_positions(sender)
        now = self.simulator.now
        radio = config.radio
        size = packet.size_bytes
        proceed, delay, mac_loss, airtime = config.mac.plan_transmission(
            sender, now, size, len(neighbors), self.rng
        )
        if not proceed:
            stats.drops_duty_cycle += 1
            return
        data = packet.kind is PacketKind.DATA
        stats.transmissions += 1
        stats.transmitted_bytes += size
        if data:
            stats.data_transmissions += 1
            stats.data_bytes += size
        else:
            stats.control_transmissions += 1
            stats.control_bytes += size
        stats.airtime_seconds += airtime
        end = now + airtime
        # such a radio notes nothing, and the table admitted each neighbour
        # by its own disc test on the same operands, so its answer would be
        # 1.0; the draws against it stay
        whole_disc = radio.hears_whole_disc
        if not whole_disc:
            radio.note_transmission(sender, sender_pos, now, end)
        draw = self.rng.random

        if destination is None:
            # the one received frame all receivers share, made on the first
            frame: Optional[Packet] = None
            receptions: List[Tuple[MobileNode, Packet, int]] = []
            for target, target_pos in neighbors.items():
                receiver = self.nodes.get(target)
                if receiver is None or not receiver.alive:
                    continue
                p_rx = 1.0 if whole_disc else radio.reception_probability_during(
                    sender, sender_pos, target, target_pos, now, end
                )
                if draw() < p_rx and draw() >= mac_loss:
                    if frame is None:
                        frame = packet.copy_for_forwarding()
                        frame.hops += 1
                    receptions.append((receiver, frame, sender))
                else:
                    stats.drops_loss += 1
            if receptions:
                self.simulator.schedule(delay, self._deliver, each=receptions)
            return

        target_pos = neighbors.get(destination)
        if target_pos is None:
            stats.drops_out_of_range += 1
            return
        receiver = self.nodes.get(destination)
        if receiver is None or not receiver.alive:
            return
        retries = 0
        total_delay = delay
        start = now
        while True:
            p_rx = 1.0 if whole_disc else radio.reception_probability_during(
                sender, sender_pos, destination, target_pos, start, end
            )
            if draw() < p_rx and draw() >= mac_loss:
                received = True
                break
            if retries >= config.unicast_retries:
                received = False
                break
            # a failed attempt with attempts left costs another frame time:
            # one more physical transmission occupying the medium, noted
            # before its own reception is decided
            retries += 1
            total_delay += delay
            stats.airtime_seconds += airtime
            start = now + retries * delay
            end = start + airtime
            if not whole_disc:
                radio.note_transmission(sender, sender_pos, start, end)
        if retries:
            stats.transmissions += retries
            stats.transmitted_bytes += retries * size
            if data:
                stats.data_transmissions += retries
                stats.data_bytes += retries * size
            else:
                stats.control_transmissions += retries
                stats.control_bytes += retries * size
        if not received:
            stats.drops_loss += 1
            return
        copy = packet.copy_for_forwarding()
        copy.hops += 1
        self.simulator.schedule(total_delay, self._deliver, args=(receiver, copy, sender))

    def _deliver(self, receiver: MobileNode, packet: Packet, sender: int) -> None:
        self.stats.receptions += 1
        receiver.deliver(packet, sender)

    # ------------------------------------------------------------------
    # delivery ledger
    # ------------------------------------------------------------------
    def register_data_packet(self, packet: Packet, intended: Iterable[int]) -> None:
        """Record an originated multicast data packet and its intended receivers."""
        intended_set = {i for i in intended if i != packet.source}
        self.deliveries[packet.uid] = DeliveryRecord(
            uid=packet.uid,
            group=packet.group if packet.group is not None else -1,
            source=packet.source,
            sent_at=self.simulator.now,
            intended=intended_set,
        )

    def note_delivery(self, packet: Packet, node_id: int) -> None:
        """Record that ``node_id`` received application data packet ``packet``."""
        record = self.deliveries.get(packet.uid)
        if record is None:
            return
        if node_id in record.intended and node_id not in record.delivered:
            record.delivered[node_id] = self.simulator.now

    def group_members(self, group: int) -> List[int]:
        """Node ids currently joined to ``group`` (alive nodes only)."""
        return [
            node_id
            for node_id, node in self.nodes.items()
            if node.alive and node.is_member(group)
        ]

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_nodes(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.nodes[node_id].fail()
        self._invalidate_neighbors()
