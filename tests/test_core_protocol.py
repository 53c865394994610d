"""Integration-level tests of the HVDB protocol agent and stack.

These exercise the three algorithms of Figures 4-6 end-to-end on small,
deterministic (static) networks built directly on the simulator.
"""

import pytest

from repro.core.membership import BroadcasterCriterion
from repro.core.protocol import (
    HVDB_PROTOCOL,
    HVDBConfig,
    HVDBParameters,
    HVDBProtocolAgent,
    HVDBStack,
)
from repro.core.qos import QoSRequirement
from repro.geo.area import Area
from repro.geo.geometry import Point
from repro.mobility.static import StaticMobility
from repro.simulation.mac import IdealMac
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.node import MobileNode
from repro.simulation.packet import Packet
from repro.simulation.radio import UnitDiskRadio


def build_hvdb_network(
    positions, vc=(8, 8), dimension=4, radio_range=300.0, params=None, non_ch_nodes=()
):
    """Static HVDB network with explicitly placed nodes on a 1000x1000 area.

    With the default ``vc=(8, 8)`` and ``dimension=4`` the logical structure
    is the paper's running example: four 4-dimensional hypercubes in a 2x2
    mesh.
    """
    area = Area(1000.0, 1000.0)
    node_ids = sorted(positions)
    mobility = StaticMobility(area, node_ids, positions=positions, seed=1)
    network = Network(
        NetworkConfig(area=area, radio=UnitDiskRadio(radio_range), mac=IdealMac(), seed=1),
        mobility,
    )
    for node_id in node_ids:
        network.add_node(MobileNode(node_id, ch_capable=node_id not in set(non_ch_nodes)))
    stack = HVDBStack(
        vc_cols=vc[0],
        vc_rows=vc[1],
        dimension=dimension,
        params=params or HVDBParameters(),
        clustering_interval=2.0,
        seed=1,
    )
    stack.install(network)
    return network, stack


def dense_grid_positions(n_per_side=4, spacing=250.0, offset=125.0):
    """One node at the centre of each VC of an n x n grid."""
    positions = {}
    node_id = 0
    for col in range(n_per_side):
        for row in range(n_per_side):
            positions[node_id] = Point(offset + col * spacing, offset + row * spacing)
            node_id += 1
    return positions


class TestStackConstruction:
    def test_agents_installed_on_every_node(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        for node in network.nodes.values():
            assert node.has_agent(HVDB_PROTOCOL)
            assert node.has_agent("geo-unicast")
        assert len(stack.agents) == len(network.nodes)

    def test_every_occupied_vc_has_a_cluster_head(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        assert len(stack.model.cluster_heads()) == 16

    def test_model_rebuilt_on_cluster_update(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        stack.start()
        network.simulator.run(6.0)
        assert stack.model_rebuilds >= 2

    def test_qos_requirement_registration(self):
        # per-group QoS requirements come from the HVDB config section
        requirement = QoSRequirement(max_delay=0.2)
        stack = HVDBStack(HVDBConfig(qos_requirements={1: requirement}), seed=1)
        assert stack.qos_requirements == {1: requirement}
        assert HVDBStack(qos_requirements={1: requirement}).qos_requirements[1] is requirement


class TestMembershipPropagation:
    def test_local_membership_reaches_cluster_head(self):
        positions = dense_grid_positions()
        positions[100] = Point(150.0, 150.0)   # extra member node, same VC as node 0
        network, stack = build_hvdb_network(positions, non_ch_nodes={100})
        network.node(100).join_group(7)
        stack.start()
        network.simulator.run(10.0)
        ch = stack.clustering.head_of_node(100)
        assert ch is not None and ch != 100
        ch_agent = stack.agents[ch]
        assert 100 in ch_agent.member_reports
        report, _ = ch_agent.member_reports[100]
        assert 7 in report.groups

    def test_mnt_summary_spreads_within_hypercube(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        member = 0
        network.node(member).join_group(3)
        stack.start()
        network.simulator.run(20.0)
        member_address = stack.model.address_of_ch(stack.clustering.head_of_node(member))
        # some other CH in the same hypercube knows the member's HNID hosts group 3
        peers = [
            agent
            for ch, agent in stack.agents.items()
            if stack.model.is_cluster_head(ch)
            and stack.model.address_of_ch(ch).hid == member_address.hid
            and ch != stack.clustering.head_of_node(member)
        ]
        assert peers
        knowing = [
            agent for agent in peers if 3 in agent._local_ht_summary(member_address.hid).groups()
        ]
        assert knowing

    def test_mt_summary_spreads_across_hypercubes(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        network.node(15).join_group(9)         # node 15 sits in the far corner block
        stack.start()
        network.simulator.run(40.0)
        member_ch = stack.clustering.head_of_node(15)
        member_mesh = stack.model.address_of_ch(member_ch).mnid
        # a CH in a *different* hypercube learned which mesh node has members
        far_chs = [
            agent
            for ch, agent in stack.agents.items()
            if stack.model.is_cluster_head(ch)
            and stack.model.address_of_ch(ch).mnid != member_mesh
        ]
        assert far_chs
        aware = [a for a in far_chs if member_mesh in a.mt_summary.mesh_nodes_for(9)]
        assert aware, "HT-Summary broadcast should have reached remote cluster heads"


def all_routes(table):
    return [route for routes in table._routes.values() for route in routes]


class TestRouteMaintenance:
    def test_route_tables_populated_with_local_logical_routes(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        stack.start()
        network.simulator.run(20.0)
        ch_agents = [a for ch, a in stack.agents.items() if stack.model.is_cluster_head(ch)]
        populated = [a for a in ch_agents if a.route_table is not None and all_routes(a.route_table)]
        assert len(populated) >= len(ch_agents) // 2
        # at least one CH knows a multi-hop logical route
        multi_hop = [
            a
            for a in populated
            if any(r.logical_hops >= 2 for r in all_routes(a.route_table))
        ]
        assert multi_hop

    def test_routes_carry_qos_state(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        stack.start()
        network.simulator.run(15.0)
        for agent in stack.agents.values():
            if agent.route_table is None:
                continue
            for route in all_routes(agent.route_table):
                assert route.qos.delay > 0.0
                assert route.qos.bandwidth > 0.0

    def test_route_beacons_counted(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        stack.start()
        network.simulator.run(10.0)
        assert stack.aggregate_stats()["route_beacons_sent"] > 0


class TestDataPath:
    def run_multicast(self, members, source, duration=60.0, extra_positions=None):
        positions = dense_grid_positions()
        if extra_positions:
            positions.update(extra_positions)
        network, stack = build_hvdb_network(positions)
        for member in members:
            network.node(member).join_group(1)
        stack.start()
        network.simulator.run(25.0)   # let membership propagate
        agent = stack.agents[source]
        agent.send_multicast(1, payload="hello", size_bytes=256)
        network.simulator.run(duration - 25.0)
        return network, stack

    def test_members_in_other_hypercubes_receive_data(self):
        # members in three different blocks; source in the fourth
        network, stack = self.run_multicast(members=[0, 3, 12, 15], source=0)
        delivered = list(network.deliveries.values())[0].delivered
        assert 15 in delivered
        assert 3 in delivered
        assert 12 in delivered

    def test_source_not_counted_as_receiver(self):
        network, _ = self.run_multicast(members=[0, 15], source=0)
        record = list(network.deliveries.values())[0]
        assert 0 not in record.intended

    def test_local_cluster_member_receives(self):
        extra = {100: Point(160.0, 130.0)}
        network, stack = self.run_multicast(
            members=[100], source=0, extra_positions=extra
        )
        record = list(network.deliveries.values())[0]
        assert 100 in record.delivered

    def test_delivery_uses_mesh_and_cube_forwarding(self):
        network, stack = self.run_multicast(members=[0, 15, 12, 3], source=0)
        stats = stack.aggregate_stats()
        assert stats["data_forwarded_mesh"] > 0
        assert stats["data_forwarded_cube"] > 0

    def test_failover_when_tree_node_disappears(self):
        positions = dense_grid_positions()
        network, stack = build_hvdb_network(positions)
        for member in (3, 15):
            network.node(member).join_group(1)
        stack.start()
        network.simulator.run(25.0)
        # kill a CH that sits on the likely tree between node 0's block and the
        # members, then send immediately (before clustering repairs anything)
        victim = stack.clustering.head_of_node(5)
        network.fail_nodes([victim])
        stack.agents[0].send_multicast(1, payload="x", size_bytes=128)
        network.simulator.run(30.0)
        record = list(network.deliveries.values())[0]
        # the surviving members are still reached despite the failure
        assert set(record.delivered) >= (record.intended - {victim})


class TestBroadcasterCriteria:
    def test_all_criteria_produce_a_broadcaster(self):
        for criterion in BroadcasterCriterion:
            params = HVDBParameters(broadcaster_criterion=criterion)
            network, stack = build_hvdb_network(dense_grid_positions(), params=params)
            network.node(15).join_group(2)
            stack.start()
            network.simulator.run(30.0)
            stats = stack.aggregate_stats()
            assert stats["ht_summaries_broadcast"] > 0, criterion
