"""Unit tests for nodes and the network (transmission, neighbours, ledger)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.area import Area
from repro.geo.geometry import Point
from repro.geo.grid import SpatialHash
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.static import StaticMobility
from repro.registry import RADIOS
from repro.simulation.agent import ProtocolAgent
from repro.simulation.mac import IdealMac
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.node import MobileNode
from repro.simulation.packet import Packet, PacketKind, data_packet
from repro.simulation.radio import UnitDiskRadio

from tests.conftest import literal_in_range, make_static_network


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
        assert net.are_neighbors(1, 2)
        assert net.are_neighbors(2, 1)
        assert not net.are_neighbors(0, 4)

    def test_failed_node_excluded_from_neighbors(self):
        net = line_network()
        net.fail_nodes([1])
        assert net.neighbors_of(0) == []
        net.recover_nodes([1])
        assert net.neighbors_of(0) == [1]

    def test_connectivity_components(self):
        net = make_static_network(
            {0: Point(0, 0), 1: Point(100, 0), 2: Point(800, 800), 3: Point(900, 800)},
            radio_range=150.0,
        )
        comps = net.connectivity_components()
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
        assert record.delivery_ratio == pytest.approx(0.5)
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
        net.start()
        net.simulator.run(10.0)
        after = net.position_of(0)
        assert before != after
        # the location service follows the mobility updates
        assert net.node(0).location_service.last_known().position == after

    def test_neighbor_positions_follow_ticks_and_failures(self):
        area = Area(600.0, 600.0)
        ids = list(range(30))
        mobility = RandomWaypointMobility(area, ids, min_speed=5.0, max_speed=30.0, seed=4)
        radio = UnitDiskRadio(150.0)
        net = Network(
            NetworkConfig(area=area, radio=radio, mac=IdealMac(), mobility_step=1.0),
            mobility,
        )
        net.add_nodes(MobileNode(i) for i in ids)
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
        net.recover_nodes([5])
        check()
        assert any(5 in net.neighbor_positions(i) for i in ids)


def reference_neighbor_lists(net):
    """Neighbour lists as the table was built before candidates were listed
    once per cell: one ``SpatialHash.candidates`` walk per node, and each
    radio's disc test written out literally (``literal_in_range``), not
    the ``RadioModel.in_range`` arithmetic the table inlines."""
    radio = net.config.radio
    in_range = literal_in_range(radio)
    index = SpatialHash(radio.nominal_range)
    positions = {}
    for node_id, node in net.nodes.items():
        if not node.alive:
            continue
        pos = net.mobility.position(node_id)
        positions[node_id] = pos
        index.insert(node_id, pos)
    return {
        node_id: [
            (other, positions[other])
            for other in index.candidates(pos)
            if other != node_id and in_range(pos, positions[other])
        ]
        for node_id, pos in positions.items()
    }


_NODE_ACTIONS = st.one_of(
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("fail"), st.lists(st.integers(min_value=0, max_value=29), max_size=5)),
    st.tuples(st.just("recover"), st.lists(st.integers(min_value=0, max_value=29), max_size=5)),
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
            mobility.set_position(node_id, Point(i * step, j * step))
        net = Network(NetworkConfig(area=area, radio=radio, mac=IdealMac()), mobility)
        net.add_nodes(MobileNode(i) for i in ids)
        net.start()

        def check():
            expected = reference_neighbor_lists(net)
            for node_id in ids:
                assert list(net.neighbor_positions(node_id).items()) == (
                    expected.get(node_id, [])
                ), node_id

        check()
        for kind, arg in actions:
            if kind == "tick":
                net.simulator.run(float(arg))
            elif kind == "fail":
                net.fail_nodes(i for i in arg if i < n_nodes)
            else:
                net.recover_nodes(i for i in arg if i < n_nodes)
            check()
