"""Unit / small-integration tests of the baseline multicast protocols."""

import pytest

from repro.baselines.dsm import DSM_PROTOCOL, DsmAgent
from repro.baselines.flooding import FLOODING_PROTOCOL, FloodingMulticastAgent
from repro.baselines.sgm import SGM_PROTOCOL, SgmAgent
from repro.baselines.spbm import SPBM_PROTOCOL, SpbmAgent
from repro.geo.geometry import Point
from repro.simulation.packet import PacketKind
from repro.unicast.router import GeoUnicastAgent

from tests.conftest import make_static_network


def grid_positions(side=4, spacing=200.0, offset=100.0):
    positions = {}
    nid = 0
    for col in range(side):
        for row in range(side):
            positions[nid] = Point(offset + col * spacing, offset + row * spacing)
            nid += 1
    return positions


def build(protocol_cls, side=4, with_geo=False, radio_range=250.0, **agent_kwargs):
    net = make_static_network(grid_positions(side), radio_range=radio_range)
    for node in net.nodes.values():
        if with_geo:
            node.attach_agent(GeoUnicastAgent())
        node.attach_agent(protocol_cls(**agent_kwargs))
    return net


class TestFlooding:
    def test_all_members_receive(self):
        net = build(FloodingMulticastAgent)
        for member in (5, 10, 15):
            net.node(member).join_group(1)
        net.node(0).agent(FLOODING_PROTOCOL).send_multicast(1, "hello")
        net.simulator.run(5.0)
        record = list(net.deliveries.values())[0]
        assert set(record.delivered) == record.intended == {5, 10, 15}

    def test_every_node_rebroadcasts_once(self):
        net = build(FloodingMulticastAgent)
        net.node(15).join_group(1)
        net.node(0).agent(FLOODING_PROTOCOL).send_multicast(1, "x")
        net.simulator.run(5.0)
        # every node transmits the packet exactly once: N transmissions total
        assert net.stats.data_transmissions == len(net.nodes)

    def test_source_member_delivers_locally(self):
        net = build(FloodingMulticastAgent)
        net.node(0).join_group(1)
        net.node(3).join_group(1)
        net.node(0).agent(FLOODING_PROTOCOL).send_multicast(1, "x")
        net.simulator.run(5.0)
        assert net.node(0).stats.delivered_to_application == 1

    def test_ignores_foreign_packets(self):
        net = build(FloodingMulticastAgent)
        agent = net.node(0).agent(FLOODING_PROTOCOL)
        from tests.conftest import data_packet

        foreign = data_packet("other-protocol", 5, 1, None, 64, 0.0)
        agent.on_packet(foreign, from_node=5)
        assert agent.rebroadcasts == 0


class TestSgm:
    def test_members_receive_via_overlay_tree(self):
        net = build(SgmAgent, with_geo=True)
        for member in (3, 12, 15):
            net.node(member).join_group(1)
        net.node(0).agent(SGM_PROTOCOL).send_multicast(1, "payload")
        net.simulator.run(10.0)
        record = list(net.deliveries.values())[0]
        assert set(record.delivered) == {3, 12, 15}

    def test_no_members_no_forwarding(self):
        net = build(SgmAgent, with_geo=True)
        net.node(0).agent(SGM_PROTOCOL).send_multicast(1, "payload")
        net.simulator.run(5.0)
        assert net.stats.data_transmissions == 0

    def test_data_cost_scales_with_group_not_network(self):
        # SGM unicasts along an overlay tree: with one member the data cost is
        # a single unicast path, far below flooding's N transmissions
        net = build(SgmAgent, with_geo=True)
        net.node(15).join_group(1)
        net.node(0).agent(SGM_PROTOCOL).send_multicast(1, "x")
        net.simulator.run(10.0)
        assert 0 < net.stats.data_transmissions < len(net.nodes)

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            SgmAgent(fanout=0)

    def test_geographic_split_covers_all_destinations(self):
        net = build(SgmAgent, with_geo=True)
        agent = net.node(0).agent(SGM_PROTOCOL)
        destinations = [3, 5, 10, 12, 15]
        clusters = agent._geographic_split(destinations, 3)
        flattened = sorted(d for cluster in clusters for d in cluster)
        assert flattened == sorted(destinations)


class TestDsm:
    def test_position_floods_fill_snapshots(self):
        net = build(DsmAgent, position_update_period=5.0)
        net.start()
        net.simulator.run(12.0)
        agent = net.node(0).agent(DSM_PROTOCOL)
        # after two flood rounds every node's position is known to node 0
        assert len(agent.known_positions) == len(net.nodes)

    def test_members_receive_after_snapshot_converges(self):
        net = build(DsmAgent, position_update_period=5.0)
        for member in (12, 15):
            net.node(member).join_group(1)
        net.start()
        net.simulator.run(12.0)
        net.node(0).agent(DSM_PROTOCOL).send_multicast(1, "data")
        net.simulator.run(10.0)
        record = list(net.deliveries.values())[0]
        assert set(record.delivered) == {12, 15}

    def test_source_tree_reaches_members_only_through_parents(self):
        net = build(DsmAgent, position_update_period=5.0)
        net.start()
        net.simulator.run(12.0)
        agent = net.node(0).agent(DSM_PROTOCOL)
        tree = agent._compute_source_tree([15])
        # the tree is a child-map keyed by stringified ids, rooted at node 0
        assert str(0) in tree
        all_children = [c for kids in tree.values() for c in kids]
        assert 15 in all_children

    def test_control_overhead_scales_with_nodes(self):
        small = build(DsmAgent, side=3, position_update_period=5.0)
        large = build(DsmAgent, side=5, position_update_period=5.0)
        small.start()
        large.start()
        small.simulator.run(11.0)
        large.simulator.run(11.0)
        per_node_small = small.stats.control_transmissions / len(small.nodes)
        per_node_large = large.stats.control_transmissions / len(large.nodes)
        # each flood costs O(N) transmissions, so per-node cost grows with N
        assert per_node_large > per_node_small

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            DsmAgent(position_update_period=0.0)


class TestSpbm:
    def test_membership_announcements_sent(self):
        net = build(SpbmAgent, with_geo=True, announce_period=4.0)
        net.node(5).join_group(1)
        net.start()
        net.simulator.run(10.0)
        assert net.stats.control_transmissions > 0
        agent = net.node(5).agent(SPBM_PROTOCOL)
        assert agent.announcements_sent >= 2

    def test_square_hierarchy_geometry(self):
        net = build(SpbmAgent, with_geo=True, levels=3)
        agent = net.node(0).agent(SPBM_PROTOCOL)
        pos = Point(100.0, 100.0)
        level0 = agent._square_of(pos, 0)
        level2 = agent._square_of(pos, 2)
        assert level0[0] == 0 and level2[0] == 2
        # level 2 is the whole area: single square
        assert level2[1:] == (0, 0)

    def test_members_eventually_receive_data(self):
        net = build(SpbmAgent, with_geo=True, announce_period=3.0)
        for member in (10, 15):
            net.node(member).join_group(1)
        net.start()
        net.simulator.run(15.0)     # let membership aggregate
        net.node(0).agent(SPBM_PROTOCOL).send_multicast(1, "data")
        net.simulator.run(10.0)
        record = list(net.deliveries.values())[0]
        assert len(record.delivered) >= 1

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            SpbmAgent(levels=0)
