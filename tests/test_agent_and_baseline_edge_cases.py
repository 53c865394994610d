"""Edge-case tests: agent base class defaults, baseline corner cases,
geo-unicast safety limits."""

import pytest

from repro.baselines.dsm import DSM_PROTOCOL, DsmAgent
from repro.baselines.sgm import SGM_PROTOCOL, SgmAgent
from repro.baselines.spbm import SPBM_PROTOCOL, SpbmAgent
from repro.geo.geometry import Point
from repro.simulation.agent import ProtocolAgent
from repro.simulation.packet import Packet, PacketKind
from repro.unicast.router import GEO_PROTOCOL, GeoUnicastAgent

from tests.conftest import data_packet, make_static_network


class MinimalAgent(ProtocolAgent):
    protocol_name = "minimal"

    def on_packet(self, packet, from_node):
        pass


class TestProtocolAgentDefaults:
    def test_send_multicast_not_implemented_by_default(self):
        net = make_static_network({0: Point(10, 10)})
        agent = MinimalAgent()
        net.node(0).attach_agent(agent)
        with pytest.raises(NotImplementedError):
            agent.send_multicast(1, "x")

    def test_bound_agent_exposes_node_and_time(self):
        net = make_static_network({0: Point(10, 10)})
        agent = MinimalAgent()
        net.node(0).attach_agent(agent)
        assert agent.node_id == 0
        assert agent.now == 0.0
        assert agent.simulator is net.simulator

    def test_group_hooks_are_noops_by_default(self):
        net = make_static_network({0: Point(10, 10)})
        agent = MinimalAgent()
        net.node(0).attach_agent(agent)
        net.node(0).join_group(3)     # must not raise
        net.node(0).leave_group(3)


class TestGeoUnicastSafety:
    def test_visited_cap_drops_wandering_packets(self):
        # a long chain with max_visited smaller than the hop count
        positions = {i: Point(100.0 * i + 10.0, 500.0) for i in range(8)}
        net = make_static_network(positions, radio_range=150.0)
        for node in net.nodes.values():
            node.attach_agent(GeoUnicastAgent(max_visited=3))
            node.attach_agent(MinimalAgent())
        inner = Packet(
            kind=PacketKind.DATA, protocol="minimal", msg_type="data", source=0, created_at=0.0
        )
        net.node(0).agent(GEO_PROTOCOL).send(inner, dest_node=7)
        net.simulator.run(2.0)
        drops = sum(
            n.agent(GEO_PROTOCOL).dropped_no_route for n in net.nodes.values()
        )
        assert drops >= 1

    def test_ignores_unrelated_messages(self):
        net = make_static_network({0: Point(10, 10), 1: Point(100, 10)})
        geo = GeoUnicastAgent()
        net.node(0).attach_agent(geo)
        other = data_packet("someone", 1, 1, None, 10, 0.0)
        geo.on_packet(other, from_node=1)   # must not raise or forward
        assert geo.forwarded == 0


class TestDsmEdgeCases:
    def build(self):
        positions = {i: Point(150.0 * i + 20.0, 300.0) for i in range(5)}
        net = make_static_network(positions, radio_range=200.0)
        for node in net.nodes.values():
            node.attach_agent(DsmAgent(position_update_period=5.0))
        return net

    def test_tree_without_snapshot_reaches_nobody(self):
        net = self.build()
        agent = net.node(0).agent(DSM_PROTOCOL)
        # no position floods have happened: the snapshot only contains the
        # sender itself, so the tree is empty and nothing is transmitted
        tree = agent._compute_source_tree([4])
        assert tree == {}

    def test_stale_snapshot_member_not_reached_registers_as_loss(self):
        net = self.build()
        net.node(4).join_group(1)
        agent = net.node(0).agent(DSM_PROTOCOL)
        agent.send_multicast(1, "x")
        net.simulator.run(5.0)
        record = list(net.deliveries.values())[0]
        assert record.intended and not record.delivered

    def test_duplicate_data_not_reforwarded(self):
        net = self.build()
        net.start()
        net.simulator.run(12.0)
        agent = net.node(2).agent(DSM_PROTOCOL)
        packet = data_packet(DSM_PROTOCOL, 0, 1, None, 64, 0.0, headers={"tree": {}})
        before = net.stats.transmissions
        agent.on_packet(packet, from_node=1)
        agent.on_packet(packet, from_node=1)
        # second reception is suppressed: no extra transmissions either time
        assert net.stats.transmissions == before


class TestSgmEdgeCases:
    def test_dead_destinations_skipped(self):
        positions = {i: Point(150.0 * i + 20.0, 300.0) for i in range(4)}
        net = make_static_network(positions, radio_range=200.0)
        for node in net.nodes.values():
            node.attach_agent(GeoUnicastAgent())
            node.attach_agent(SgmAgent())
        net.node(3).join_group(1)
        net.node(3).fail()
        net.node(0).agent(SGM_PROTOCOL).send_multicast(1, "x")
        net.simulator.run(3.0)
        # nothing delivered, but no crash and no runaway forwarding
        assert list(net.deliveries.values())[0].delivered == {}

    def test_split_single_destination(self):
        positions = {0: Point(10, 10), 1: Point(200, 10)}
        net = make_static_network(positions)
        for node in net.nodes.values():
            node.attach_agent(GeoUnicastAgent())
            node.attach_agent(SgmAgent(fanout=3))
        agent = net.node(0).agent(SGM_PROTOCOL)
        assert agent._geographic_split([1], 3) == [[1]]


class TestSpbmEdgeCases:
    def test_no_membership_knowledge_falls_back_to_broadcast(self):
        positions = {0: Point(100, 100), 1: Point(250, 100)}
        net = make_static_network(positions, radio_range=200.0)
        for node in net.nodes.values():
            node.attach_agent(GeoUnicastAgent())
            node.attach_agent(SpbmAgent())
        net.node(1).join_group(1)
        # send before any membership announcements have circulated
        net.node(0).agent(SPBM_PROTOCOL).send_multicast(1, "x")
        net.simulator.run(2.0)
        record = list(net.deliveries.values())[0]
        # the fallback local broadcast still reaches the in-range member
        assert 1 in record.delivered

    def test_target_squares_only_level_zero(self):
        positions = {0: Point(100, 100)}
        net = make_static_network(positions)
        net.node(0).attach_agent(GeoUnicastAgent())
        agent = SpbmAgent(levels=3)
        net.node(0).attach_agent(agent)
        agent.square_members[(0, 0, 0)] = {1}
        agent.square_members[(2, 0, 0)] = {1}
        assert agent._target_squares(1) == [(0, 0, 0)]
