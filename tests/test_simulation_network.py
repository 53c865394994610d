"""Unit tests for nodes and the network (transmission, neighbours, ledger)."""

import dataclasses
import random
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.area import Area
from repro.geo.geometry import Point
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.static import StaticMobility
from repro.registry import MACS, RADIOS
from repro.simulation.agent import ProtocolAgent
from repro.simulation.mac import IdealMac, MacModel, SimpleCsmaMac, TxPlan
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.node import MobileNode
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.phy import CsmaCaMac, CsmaCaMacConfig
from repro.simulation.radio import UnitDiskRadio

from tests.conftest import control_packet, data_packet, literal_in_range, make_static_network


class RecordingAgent(ProtocolAgent):
    """Test agent that records every packet it receives."""

    protocol_name = "recorder"

    def __init__(self):
        super().__init__()
        self.received = []
        self.started = False

    def on_start(self):
        self.started = True

    def on_packet(self, packet, from_node):
        self.received.append((packet, from_node))


def line_network(spacing=100.0, count=5, radio_range=150.0):
    """Nodes on a line, each within range of its neighbours only."""
    positions = {i: Point(i * spacing + 10.0, 500.0) for i in range(count)}
    return make_static_network(positions, radio_range=radio_range)


class TestTopology:
    def test_neighbors_on_line(self):
        net = line_network()
        assert sorted(net.neighbors_of(2)) == [1, 3]
        assert sorted(net.neighbors_of(0)) == [1]

    def test_are_neighbors_symmetric(self):
        net = line_network()
        assert 2 in net.neighbors_of(1)
        assert 1 in net.neighbors_of(2)
        assert 4 not in net.neighbors_of(0)

    def test_failed_node_excluded_from_neighbors(self):
        net = line_network()
        assert net.neighbors_of(0) == [1]
        net.fail_nodes([1])
        assert net.neighbors_of(0) == []

    def test_connectivity_components(self):
        net = make_static_network(
            {0: Point(0, 0), 1: Point(100, 0), 2: Point(800, 800), 3: Point(900, 800)},
            radio_range=150.0,
        )
        comps = []
        unseen = set(net.nodes)
        while unseen:
            frontier = [min(unseen)]
            comp = set(frontier)
            while frontier:
                for nb in net.neighbors_of(frontier.pop()):
                    if nb not in comp:
                        comp.add(nb)
                        frontier.append(nb)
            comps.append(comp)
            unseen -= comp
        assert len(comps) == 2
        assert {0, 1} in comps and {2, 3} in comps

    def test_duplicate_node_rejected(self):
        net = line_network()
        with pytest.raises(ValueError):
            net.add_node(MobileNode(0))

    def test_node_without_mobility_state_rejected(self):
        area = Area(1000, 1000)
        mobility = StaticMobility(area, [0, 1], seed=1)
        net = Network(NetworkConfig(area=area), mobility)
        with pytest.raises(ValueError):
            net.add_node(MobileNode(7))


class TestTransmission:
    def test_broadcast_reaches_neighbors_only(self):
        net = line_network()
        agents = {}
        for node in net.nodes.values():
            agent = RecordingAgent()
            node.attach_agent(agent)
            agents[node.node_id] = agent
        packet = data_packet("recorder", source=2, group=1, payload="x", size_bytes=100, now=0.0)
        net.node(2).broadcast(packet)
        net.simulator.run(1.0)
        assert len(agents[1].received) == 1
        assert len(agents[3].received) == 1
        assert agents[0].received == []
        assert agents[4].received == []
        assert agents[2].received == []  # sender does not hear itself

    def test_unicast_to_out_of_range_node_dropped(self):
        net = line_network()
        agent = RecordingAgent()
        net.node(4).attach_agent(agent)
        packet = data_packet("recorder", source=0, group=1, payload="x", size_bytes=100, now=0.0)
        net.node(0).unicast(4, packet)
        net.simulator.run(1.0)
        assert agent.received == []
        assert net.stats.drops_out_of_range == 1

    def test_unicast_delivery_and_hop_count(self):
        net = line_network()
        agent = RecordingAgent()
        net.node(1).attach_agent(agent)
        packet = data_packet("recorder", source=0, group=1, payload="x", size_bytes=100, now=0.0)
        net.node(0).unicast(1, packet)
        net.simulator.run(1.0)
        assert len(agent.received) == 1
        received, from_node = agent.received[0]
        assert from_node == 0
        assert received.hops == 1

    def test_dead_sender_does_not_transmit(self):
        net = line_network()
        agent = RecordingAgent()
        net.node(1).attach_agent(agent)
        net.node(0).fail()
        packet = data_packet("recorder", source=0, group=1, payload="x", size_bytes=100, now=0.0)
        net.node(0).broadcast(packet)
        net.simulator.run(1.0)
        assert agent.received == []

    def test_dead_receiver_does_not_receive(self):
        net = line_network()
        agent = RecordingAgent()
        net.node(1).attach_agent(agent)
        net.node(1).fail()
        packet = data_packet("recorder", source=0, group=1, payload="x", size_bytes=100, now=0.0)
        net.node(0).broadcast(packet)
        net.simulator.run(1.0)
        assert agent.received == []

    def test_transmission_counters(self):
        net = line_network()
        packet = data_packet("p", source=0, group=1, payload=None, size_bytes=200, now=0.0)
        net.node(0).broadcast(packet)
        assert net.stats.transmissions == 1
        assert net.stats.data_transmissions == 1
        assert net.stats.data_bytes == 200

    def test_ttl_guard(self):
        net = line_network()
        packet = data_packet("p", source=0, group=1, payload=None, size_bytes=10, now=0.0)
        packet.hops = net.config.max_packet_hops
        net.node(0).broadcast(packet)
        assert net.stats.drops_ttl == 1
        assert net.stats.transmissions == 0


class TestAgentsAndGroups:
    def test_on_start_called(self):
        net = line_network()
        agent = RecordingAgent()
        net.node(0).attach_agent(agent)
        net.start()
        assert agent.started

    def test_start_twice_raises(self):
        net = line_network()
        net.start()
        with pytest.raises(RuntimeError):
            net.start()

    def test_group_membership_callbacks(self):
        net = line_network()

        class MembershipAgent(RecordingAgent):
            def __init__(self):
                super().__init__()
                self.joined = []
                self.left = []

            def on_group_join(self, group):
                self.joined.append(group)

            def on_group_leave(self, group):
                self.left.append(group)

        agent = MembershipAgent()
        net.node(0).attach_agent(agent)
        net.node(0).join_group(5)
        net.node(0).join_group(5)      # duplicate join is a no-op
        net.node(0).leave_group(5)
        net.node(0).leave_group(5)     # duplicate leave is a no-op
        assert agent.joined == [5]
        assert agent.left == [5]

    def test_group_members_query(self):
        net = line_network()
        net.node(0).join_group(9)
        net.node(2).join_group(9)
        net.node(3).fail()
        net.node(3).join_group(9)
        # failed nodes are not counted as reachable members
        assert sorted(net.group_members(9)) == [0, 2]

    def test_agent_lookup(self):
        net = line_network()
        agent = RecordingAgent()
        net.node(0).attach_agent(agent)
        assert net.node(0).agent("recorder") is agent
        assert net.node(0).has_agent("recorder")
        with pytest.raises(KeyError):
            net.node(0).agent("missing")

    def test_attach_agent_requires_network(self):
        node = MobileNode(99)
        with pytest.raises(RuntimeError):
            node.attach_agent(RecordingAgent())


class TestDeliveryLedger:
    def test_register_and_note_delivery(self):
        net = line_network()
        packet = data_packet("p", source=0, group=1, payload=None, size_bytes=10, now=0.0)
        net.register_data_packet(packet, intended=[1, 2, 0])
        record = net.deliveries[packet.uid]
        assert record.intended == {1, 2}            # source excluded
        net.note_delivery(packet, 1)
        net.note_delivery(packet, 1)                 # duplicate delivery counted once
        net.note_delivery(packet, 4)                 # not intended -> ignored
        assert set(record.delivered) == {1}
        assert len(record.delays()) == 1

    def test_unknown_packet_delivery_ignored(self):
        net = line_network()
        packet = data_packet("p", source=0, group=1, payload=None, size_bytes=10, now=0.0)
        net.note_delivery(packet, 1)     # must not raise
        assert packet.uid not in net.deliveries


class TestMobilityIntegration:
    def test_positions_update_and_neighbors_invalidate(self):
        area = Area(1000.0, 1000.0)
        mobility = RandomWaypointMobility(area, [0, 1], min_speed=20.0, max_speed=20.0, seed=2)
        net = Network(
            NetworkConfig(area=area, radio=UnitDiskRadio(100.0), mac=IdealMac(), mobility_step=1.0),
            mobility,
        )
        net.add_node(MobileNode(0))
        net.add_node(MobileNode(1))
        before = net.position_of(0)
        table_before = net.neighbor_positions(0)
        net.start()
        net.simulator.run(10.0)
        after = net.position_of(0)
        assert before != after
        # every reader sees the ticked state: the GPS-like velocity view
        # and a neighbour table rebuilt since the first read
        assert net.velocity_of(0) == mobility.velocity(0)
        assert net.neighbor_positions(0) is not table_before

    def test_neighbor_positions_follow_ticks_and_failures(self):
        area = Area(600.0, 600.0)
        ids = list(range(30))
        mobility = RandomWaypointMobility(area, ids, min_speed=5.0, max_speed=30.0, seed=4)
        radio = UnitDiskRadio(150.0)
        net = Network(
            NetworkConfig(area=area, radio=radio, mac=IdealMac(), mobility_step=1.0),
            mobility,
        )
        for node_id in ids:
            net.add_node(MobileNode(node_id))
        net.start()
        in_range = literal_in_range(radio)

        def check():
            alive = [i for i in ids if net.node(i).alive]
            for node_id in ids:
                listed = net.neighbors_of(node_id)
                mapping = net.neighbor_positions(node_id)
                assert list(mapping) == listed
                assert all(mapping[nb] == net.position_of(nb) for nb in listed)
                expected = {
                    other
                    for other in alive
                    if node_id in alive
                    and other != node_id
                    and in_range(net.position_of(node_id), net.position_of(other))
                }
                assert set(listed) == expected
                # the list is the caller's own; the mapping is shared, read-only
                listed.append(-1)
                assert -1 not in net.neighbors_of(node_id)
                with pytest.raises(TypeError):
                    mapping[-1] = Point(0.0, 0.0)

        for _ in range(4):
            net.simulator.run(1.0)
            check()
        net.fail_nodes([0, 5, 7])
        check()
        assert all(5 not in net.neighbor_positions(i) for i in ids)
        net.simulator.run(2.0)
        check()


def reference_neighbor_lists(net):
    """Neighbour lists from a literal 3x3 cell walk that shares no code
    with the table: a node at ``(x, y)`` sits in cell ``(int(x // r),
    int(y // r))`` for the radio's nominal range ``r``; its candidates are
    the alive nodes of the cells around it, ``dx`` outer and ``dy`` inner,
    each cell's nodes in ``net.nodes`` order; and each radio's disc test is
    written out literally (``literal_in_range``), not the
    ``RadioModel.in_range`` arithmetic the table inlines."""
    radio = net.config.radio
    r = radio.nominal_range
    in_range = literal_in_range(radio)
    positions = {
        node_id: net.mobility.position(node_id)
        for node_id, node in net.nodes.items()
        if node.alive
    }
    cells = {node_id: (int(p.x // r), int(p.y // r)) for node_id, p in positions.items()}
    lists = {}
    for node_id, pos in positions.items():
        cx, cy = cells[node_id]
        lists[node_id] = [
            (other, positions[other])
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for other in positions
            if cells[other] == (cx + dx, cy + dy)
            and other != node_id
            and in_range(pos, positions[other])
        ]
    return lists


_NODE_ACTIONS = st.one_of(
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("fail"), st.lists(st.integers(min_value=0, max_value=29), max_size=5)),
)


class TestNeighborTableMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        radio_name=st.sampled_from(RADIOS.names()),
        n_nodes=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
        # forced (i, j) lattice points at half-cell spacing: on cell edges,
        # and whole cells (exactly the nominal range) apart
        lattice=st.lists(
            st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
            max_size=12,
        ),
        actions=st.lists(_NODE_ACTIONS, max_size=8),
    )
    def test_neighbor_positions_match_per_node_walk(
        self, radio_name, n_nodes, seed, lattice, actions
    ):
        area = Area(1000.0, 1000.0)
        ids = list(range(n_nodes))
        radio = RADIOS.get(radio_name)(None)
        step = radio.nominal_range / 2.0
        mobility = RandomWaypointMobility(area, ids, min_speed=5.0, max_speed=40.0, seed=seed)
        for node_id, (i, j) in zip(ids, lattice):
            mobility._states[node_id] = dataclasses.replace(
                mobility._states[node_id], position=Point(i * step, j * step)
            )
        net = Network(NetworkConfig(area=area, radio=radio, mac=IdealMac()), mobility)
        for node_id in ids:
            net.add_node(MobileNode(node_id))
        net.start()

        def check():
            expected = reference_neighbor_lists(net)
            for node_id in ids:
                assert list(net.neighbor_positions(node_id).items()) == (
                    expected.get(node_id, [])
                ), node_id
            if not radio.hears_whole_disc:
                return
            # what lets a broadcast skip the radio call: it would say 1.0
            # for every table neighbour
            now = net.simulator.now
            for node_id in ids:
                pos = net.position_of(node_id)
                for other, other_pos in net.neighbor_positions(node_id).items():
                    assert radio.reception_probability_during(
                        node_id, pos, other, other_pos, now, now + 0.01
                    ) == 1.0, (node_id, other)

        check()
        for kind, arg in actions:
            if kind == "tick":
                net.simulator.run(float(arg))
            else:
                net.fail_nodes(i for i in arg if i < n_nodes)
            check()


class ReferenceNetwork(Network):
    """``Network`` with ``transmit`` and ``_count_transmission`` as they were
    before ``transmit`` split on ``destination``, kept verbatim."""

    def transmit(
        self, sender: int, packet: Packet, destination: Optional[int] = None
    ) -> None:
        """Carry out one physical transmission (broadcast or unicast).

        The MAC resolves the frame into a :class:`~repro.simulation.mac.
        TxPlan` (delay, loss probability, airtime, or an outright
        duty-cycle denial); the radio is told about the frame's on-air
        interval before reception at each candidate receiver is decided,
        so interference-aware radios can hold every concurrent frame
        against it.  The delivery is scheduled after the MAC delay.
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
        proceed, delay, mac_loss, airtime = config.mac.plan_transmission(
            sender, now, packet.size_bytes, len(neighbors), self.rng
        )
        if not proceed:
            stats.drops_duty_cycle += 1
            return
        self._count_transmission(packet)
        stats.airtime_seconds += airtime
        radio.note_transmission(sender, sender_pos, now, now + airtime)

        if destination is None:
            targets = neighbors.items()
        elif destination in neighbors:
            targets = ((destination, neighbors[destination]),)
        else:
            targets = ()
            stats.drops_out_of_range += 1

        # Unicast frames benefit from link-layer ARQ (802.11-style retries);
        # broadcast frames are fire-and-forget: one attempt, so all their
        # receptions share ``delay`` and go out as one fan-out entry.
        attempts = 1 + (config.unicast_retries if destination is not None else 0)
        receptions: Optional[List[Tuple[MobileNode, Packet, int]]] = (
            [] if destination is None else None
        )
        draw = self.rng.random
        for target, target_pos in targets:
            receiver = self.nodes.get(target)
            if receiver is None or not receiver.alive:
                continue
            total_delay = delay
            received = False
            for attempt in range(attempts):
                attempt_start = now + attempt * delay
                p_rx = radio.reception_probability_during(
                    sender,
                    sender_pos,
                    target,
                    target_pos,
                    attempt_start,
                    attempt_start + airtime,
                )
                if draw() < p_rx and draw() >= mac_loss:
                    received = True
                    break
                # a failed attempt costs another frame time (and is counted
                # as an extra physical transmission occupying the medium)
                if attempt + 1 < attempts:
                    total_delay += delay
                    self._count_transmission(packet)
                    stats.airtime_seconds += airtime
                    retry_start = now + (attempt + 1) * delay
                    radio.note_transmission(
                        sender, sender_pos, retry_start, retry_start + airtime
                    )
            if not received:
                stats.drops_loss += 1
                continue
            copy = packet.copy_for_forwarding()
            copy.hops += 1
            if receptions is not None:
                receptions.append((receiver, copy, sender))
            else:
                self.simulator.schedule(
                    total_delay, lambda r=receiver, c=copy, s=sender: self._deliver(r, c, s)
                )
        if receptions:
            self.simulator.schedule(delay, self._deliver, each=receptions)

    def _count_transmission(self, packet: Packet) -> None:
        self.stats.transmissions += 1
        self.stats.transmitted_bytes += packet.size_bytes
        if packet.kind is PacketKind.DATA:
            self.stats.data_transmissions += 1
            self.stats.data_bytes += packet.size_bytes
        else:
            self.stats.control_transmissions += 1
            self.stats.control_bytes += packet.size_bytes


class UnmemoisedPlan(MacModel):
    """A MAC's default plan built afresh for every frame, as before the memo."""

    def __init__(self, mac: MacModel) -> None:
        self.mac = mac

    def transmission_delay(self, size_bytes: int, contenders: int) -> float:
        return self.mac.transmission_delay(size_bytes, contenders)

    def loss_probability(self, contenders: int) -> float:
        return self.mac.loss_probability(contenders)

    def plan_transmission(self, sender, now, size_bytes, contenders, rng) -> TxPlan:
        delay = self.transmission_delay(size_bytes, contenders)
        return TxPlan(True, delay, self.loss_probability(contenders), delay)


#: MACs for the twin networks: every registered one, a lossy CSMA whose
#: frames fail often enough for retries to happen and run out, and a
#: CSMA/CA whose duty cycle denies frames
TWIN_MACS = {
    **{name: (lambda name=name: MACS.get(name)(None)) for name in MACS.names()},
    "csma-lossy": lambda: SimpleCsmaMac(
        collision_probability_per_contender=0.3, max_collision_probability=0.9
    ),
    "csma_ca-duty": lambda: CsmaCaMac(CsmaCaMacConfig(duty_cycle=0.0005, duty_cycle_window=1.0)),
}


class LoggingAgent(ProtocolAgent):
    """Logs every reception as (time, receiver, sender, copy hops)."""

    protocol_name = "logger"

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_packet(self, packet, from_node):
        self.log.append((self.now, self.node_id, from_node, packet.hops))


class Twin:
    """One network of a twin pair, logging deliveries and noted intervals."""

    def __init__(self, cls, radio_name, mac, positions, retries, seed):
        area = Area(1000.0, 1000.0)
        ids = sorted(positions)
        radio = RADIOS.get(radio_name)(None)
        self.notes: List[tuple] = []
        note = radio.note_transmission

        def logged_note(sender, position, start, end):
            self.notes.append((sender, position, start, end))
            note(sender, position, start, end)

        radio.note_transmission = logged_note
        self.net = cls(
            NetworkConfig(area=area, radio=radio, mac=mac, seed=seed, unicast_retries=retries),
            StaticMobility(area, ids, positions=positions, seed=seed),
        )
        self.deliveries: List[tuple] = []
        for node_id in ids:
            self.net.add_node(MobileNode(node_id)).attach_agent(LoggingAgent(self.deliveries))

    def observed(self):
        net = self.net
        return (
            dataclasses.asdict(net.stats),
            net.rng.getstate(),
            list(self.deliveries),
            list(self.notes),
        )


def twins(radio_name, mac_name, positions, retries, seed):
    mac, reference_mac = TWIN_MACS[mac_name](), TWIN_MACS[mac_name]()
    if type(reference_mac).plan_transmission is MacModel.plan_transmission:
        reference_mac = UnmemoisedPlan(reference_mac)
    return (
        Twin(Network, radio_name, mac, positions, retries, seed),
        Twin(ReferenceNetwork, radio_name, reference_mac, positions, retries, seed),
    )


_MAX_HOPS = NetworkConfig.max_packet_hops
_UNKNOWN = 99
_FRAME = st.tuples(
    st.just("frame"),
    st.integers(min_value=0, max_value=7),                       # sender (mod n)
    # -3 and -2 broadcast, -1 is an id no node has, k >= 0 unicasts to
    # the (k + 1)-th node after the sender (mod n): in range, out of
    # range or the sender itself
    st.integers(min_value=-3, max_value=7),
    st.sampled_from([0, 64, 300, 1500]),                         # size in bytes
    st.booleans(),                                               # data or control
    st.sampled_from([0, 0, 1, _MAX_HOPS - 1, _MAX_HOPS]),        # hops so far
)
_TWIN_ACTIONS = st.lists(
    st.one_of(
        _FRAME,
        _FRAME,
        _FRAME,
        st.tuples(st.just("fail"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.0004, 0.003, 0.02, 0.7])),
    ),
    min_size=4,
    max_size=30,
)


def play(twin, actions):
    """Apply ``actions`` to ``twin``; yields what it shows after each one."""
    net = twin.net
    ids = sorted(net.nodes)
    for action in actions:
        kind = action[0]
        if kind == "frame":
            _, sender, destination, size, data, hops = action
            index = sender % len(ids)
            sender = ids[index]
            if destination < -1:
                destination = None
            elif destination == -1:
                destination = _UNKNOWN
            else:
                destination = ids[(index + 1 + destination) % len(ids)]
            now = net.simulator.now
            if data:
                packet = data_packet("p", sender, 1, None, size, now)
            else:
                packet = control_packet("p", "ctl", sender, size, now)
            packet.hops = hops
            net.transmit(sender, packet, destination)
        elif kind == "fail":
            # MobileNode.fail, not Network.fail_nodes: the neighbour table
            # still lists a failed node
            net.nodes[ids[action[1] % len(ids)]].fail()
        else:
            net.simulator.run_until(net.simulator.now + action[1])
        yield action, twin.observed()
    # past every frame in flight, retries included
    net.simulator.run_until(net.simulator.now + 1000.0)
    yield "drained", twin.observed()


class TestTransmitMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        radio_name=st.sampled_from(RADIOS.names()),
        # half the examples lose frames often enough for retries to pile up
        mac_name=st.one_of(st.sampled_from(sorted(TWIN_MACS)), st.just("csma-lossy")),
        # lattice points 50 m apart: exactly 250 m (the unit disk's and the
        # SINR radio's range) and 300 m (the log-distance cutoff) occur
        lattice=st.lists(
            st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
            min_size=3,
            max_size=8,
            unique=True,
        ),
        retries=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        actions=_TWIN_ACTIONS,
    )
    def test_every_frame_matches_the_reference(
        self, radio_name, mac_name, lattice, retries, seed, actions
    ):
        positions = {
            node_id: Point(100.0 + 50.0 * i, 100.0 + 50.0 * j)
            for node_id, (i, j) in enumerate(lattice)
        }
        new, reference = twins(radio_name, mac_name, positions, retries, seed)
        for seen, expected in zip(play(new, actions), play(reference, actions)):
            assert seen == expected

    def test_unicast_delivered_on_its_third_attempt(self):
        class ThirdAttempt(UnitDiskRadio):
            """Logs every note and decision; decodes only the third attempt."""

            def __init__(self):
                super().__init__(250.0)
                self.log = []

            def note_transmission(self, sender, position, start, end):
                self.log.append(("note", start, end))

            def reception_probability_during(
                self, sender, sender_pos, receiver, receiver_pos, start, end
            ):
                self.log.append(("decide", start, end))
                return 1.0 if len(self.log) == 6 else 0.0

        area = Area(1000.0, 1000.0)
        positions = {0: Point(100.0, 100.0), 1: Point(300.0, 100.0)}
        delay = 0.006
        radio = ThirdAttempt()
        net = Network(
            NetworkConfig(
                area=area, radio=radio, mac=IdealMac(delay), seed=1, unicast_retries=3
            ),
            StaticMobility(area, [0, 1], positions=positions, seed=1),
        )
        log = []
        for node_id in (0, 1):
            net.add_node(MobileNode(node_id)).attach_agent(LoggingAgent(log))
        stats = net.stats
        stats.airtime_seconds = 0.1     # as if earlier frames had been on the air
        net.transmit(0, control_packet("p", "ctl", 0, 100, 0.0), 1)
        assert stats.transmissions == stats.control_transmissions == 3
        assert stats.transmitted_bytes == stats.control_bytes == 300
        # one addition per attempt, in attempt order: adding the retries'
        # airtime as one product rounds differently here
        assert stats.airtime_seconds == 0.1 + delay + delay + delay
        assert stats.airtime_seconds != 0.1 + delay + 2 * delay
        assert stats.drops_loss == 0
        # a failed reception takes one draw; the success two (reception,
        # then the MAC's loss)
        draws = random.Random(1)
        for _ in range(4):
            draws.random()
        assert net.rng.getstate() == draws.getstate()
        # each attempt is noted before it is decided, one delay apart
        assert radio.log == [
            (event, k * delay, k * delay + delay)
            for k in range(3)
            for event in ("note", "decide")
        ]
        net.simulator.run_until(net.simulator.now + 1000.0)
        assert log == [(3 * delay, 1, 0, 1)]
