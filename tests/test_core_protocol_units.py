"""Focused unit tests for HVDB protocol-agent internals.

The end-to-end behaviour is covered in ``test_core_protocol.py``; these
tests pin down the smaller decision functions (fail-over target selection,
fallback CH choice, packet handling rules) in isolation.
"""

import pytest

from repro.core.hvdb import HVDBModel
from repro.core.protocol import HVDB_PROTOCOL, HVDBParameters
from repro.geo.geometry import Point
from repro.hypercube.multicast_tree import MulticastTree
from repro.simulation.packet import Packet, PacketKind

from tests.test_core_protocol import build_hvdb_network, dense_grid_positions


class TestAgentRoleTracking:
    def test_agent_knows_whether_it_is_cluster_head(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        # every node sits alone in its VC, so every node is a CH
        for node_id, agent in stack.agents.items():
            assert agent.is_cluster_head()

    def test_non_capable_node_is_not_cluster_head(self):
        positions = dense_grid_positions()
        positions[99] = Point(140.0, 140.0)
        network, stack = build_hvdb_network(positions, non_ch_nodes={99})
        assert not stack.agents[99].is_cluster_head()
        assert stack.agents[99]._my_ch() is not None

    def test_route_table_created_lazily_with_own_hnid(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        agent = stack.agents[0]
        table = agent._ensure_route_table()
        assert table.own_hnid == stack.model.address_of_ch(0).hnid
        # calling again returns the same table
        assert agent._ensure_route_table() is table

    def test_model_update_invalidates_tree_caches(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        agent = stack.agents[0]
        agent.forwarding.mesh_trees[1] = "sentinel"      # type: ignore[assignment]
        agent.on_model_update()
        assert agent.forwarding.mesh_trees == {}


class TestFailoverTarget:
    def test_failover_picks_present_ch_serving_orphaned_member(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        agent = stack.agents[0]
        address = stack.model.address_of_ch(0)
        cube = stack.model.hypercube(address.hid)
        present = sorted(cube.nodes())
        assert len(present) >= 3
        missing = present[1]
        member = present[2]
        tree = MulticastTree(
            root=address.hnid,
            children={address.hnid: [missing], missing: [member]},
            members={member, missing},
        )
        target = agent._failover_target(address.hid, missing, tree, group=1)
        assert target == stack.model.chid_at(address.hid, member)

    def test_failover_returns_none_when_no_orphaned_members_present(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        agent = stack.agents[0]
        address = stack.model.address_of_ch(0)
        missing = 15  # a label with no CH in the sparse test cube, if absent
        tree = MulticastTree(root=address.hnid, children={}, members={address.hnid})
        assert agent._failover_target(address.hid, missing, tree, group=1) is None


class TestSourceFallbacks:
    def test_nearest_backbone_ch_is_geographically_closest(self):
        positions = dense_grid_positions()
        positions[99] = Point(140.0, 140.0)
        network, stack = build_hvdb_network(positions, non_ch_nodes={99})
        agent = stack.agents[99]
        nearest = agent._nearest_backbone_ch()
        # node 0 sits in the same VC corner -> it is the closest CH
        assert nearest == 0

    def test_send_multicast_registers_intended_members(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        network.node(5).join_group(4)
        network.node(9).join_group(4)
        stack.start()
        network.simulator.run(5.0)
        stack.agents[0].send_multicast(4, payload="x", size_bytes=64)
        record = list(network.deliveries.values())[0]
        assert record.intended == {5, 9}
        assert record.group == 4

    def test_source_that_is_member_delivers_to_itself(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        network.node(0).join_group(4)
        network.node(9).join_group(4)
        stack.start()
        network.simulator.run(5.0)
        stack.agents[0].send_multicast(4, payload="x", size_bytes=64)
        assert network.node(0).stats.delivered_to_application >= 1
        # the ledger never counts the source as an intended receiver
        record = list(network.deliveries.values())[0]
        assert 0 not in record.intended


class TestPacketHandlingRules:
    def test_foreign_protocol_packets_ignored(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        agent = stack.agents[0]
        foreign = Packet(
            kind=PacketKind.DATA,
            protocol="someone-else",
            msg_type="data",
            source=1,
            group=1,
            created_at=0.0,
        )
        agent.on_packet(foreign, from_node=1)   # must not raise nor deliver
        assert network.node(0).stats.delivered_to_application == 0

    def test_member_overhearing_data_delivers_once(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        network.node(0).join_group(2)
        network.node(9).join_group(2)
        stack.start()
        network.simulator.run(5.0)
        data = Packet(
            kind=PacketKind.DATA,
            protocol=HVDB_PROTOCOL,
            msg_type="data",
            source=9,
            group=2,
            headers={"stage": "local"},
            created_at=network.simulator.now,
        )
        network.register_data_packet(data, [0, 9])
        agent = stack.agents[0]
        agent.on_packet(data, from_node=9)
        agent.on_packet(data, from_node=9)
        record = network.deliveries[data.uid]
        # duplicate receptions of the same packet count as one delivery
        assert list(record.delivered.keys()) == [0]

    def test_non_member_does_not_deliver(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        data = Packet(
            kind=PacketKind.DATA,
            protocol=HVDB_PROTOCOL,
            msg_type="data",
            source=9,
            group=2,
            headers={"stage": "local"},
            created_at=0.0,
        )
        stack.agents[0]._maybe_deliver_locally(data)
        assert network.node(0).stats.delivered_to_application == 0


def _route_beacon(sender, receiver, hnid, hid):
    return Packet(
        kind=PacketKind.CONTROL,
        protocol=HVDB_PROTOCOL,
        msg_type="route-beacon",
        source=sender,
        destination=receiver,
        payload={"hnid": hnid, "hid": hid, "sent_at": 0.0, "routes": []},
        created_at=0.0,
    )


class TestRouteBeacons:
    def test_beacon_from_a_logical_neighbour_records_the_link(self):
        network, stack = build_hvdb_network(dense_grid_positions())
        agent = stack.agents[0]
        peer = stack.model.logical_neighbors_of_ch(0)[0]
        peer_address = stack.model.address_of_ch(peer)
        agent.on_packet(
            _route_beacon(peer, 0, peer_address.hnid, peer_address.hid), from_node=peer
        )
        assert agent.route_table.neighbor_hnids() == [peer_address.hnid]

    def test_stale_beacon_carrying_the_receivers_own_hnid_is_dropped(self):
        # a beacon sent just before a model rebuild can reach the node
        # that now holds the sender's hnid; it used to raise ValueError
        # ("a CH has no logical link to itself") and abort the run
        network, stack = build_hvdb_network(dense_grid_positions())
        agent = stack.agents[0]
        own = stack.model.address_of_ch(0)
        peer = stack.model.logical_neighbors_of_ch(0)[0]
        agent.on_packet(_route_beacon(peer, 0, own.hnid, own.hid), from_node=peer)
        assert agent._ensure_route_table().neighbor_hnids() == []


class TestParameters:
    def test_default_parameters_sane(self):
        params = HVDBParameters()
        assert params.local_membership_period < params.mnt_summary_period
        assert params.mnt_summary_period < params.ht_summary_period
        assert params.max_logical_hops >= 1
        assert params.routes_per_destination >= 1

    def test_stack_uses_supplied_parameters(self):
        custom = HVDBParameters(route_beacon_period=9.0)
        network, stack = build_hvdb_network(dense_grid_positions(), params=custom)
        assert stack.params.route_beacon_period == 9.0
        assert stack.agents[0].params.route_beacon_period == 9.0
