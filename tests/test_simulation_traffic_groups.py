"""Unit tests for traffic sources and the multicast group manager."""

import pytest

from repro.geo.geometry import Point
from repro.simulation.agent import ProtocolAgent
from repro.simulation.groups import GroupEvent, MulticastGroupManager
from repro.simulation.traffic import CbrMulticastSource

from tests.conftest import make_static_network


class CountingMulticastAgent(ProtocolAgent):
    protocol_name = "counting"

    def __init__(self):
        super().__init__()
        self.sent = []

    def on_packet(self, packet, from_node):
        pass

    def send_multicast(self, group, payload, size_bytes=512):
        self.sent.append((group, payload, size_bytes, self.now))


def network_with_agents(count=4):
    positions = {i: Point(100.0 * i + 50.0, 500.0) for i in range(count)}
    net = make_static_network(positions)
    agents = {}
    for node in net.nodes.values():
        agent = CountingMulticastAgent()
        node.attach_agent(agent)
        agents[node.node_id] = agent
    net.start()
    return net, agents


class TestCbrSource:
    def test_emits_at_constant_rate(self):
        net, agents = network_with_agents()
        source = CbrMulticastSource(net, 0, group=1, protocol_name="counting", interval=2.0, start_time=1.0)
        net.simulator.run(11.0)
        assert source.packets_sent == len(agents[0].sent)
        assert source.packets_sent == 6   # t = 1, 3, 5, 7, 9, 11

    def test_stop_time(self):
        net, agents = network_with_agents()
        CbrMulticastSource(
            net, 0, group=1, protocol_name="counting", interval=1.0, start_time=0.5, stop_time=3.0
        )
        net.simulator.run(10.0)
        assert all(t <= 3.0 for (_, _, _, t) in agents[0].sent)

    def test_stopped_source_stops(self):
        net, agents = network_with_agents()
        source = CbrMulticastSource(
            net, 0, group=1, protocol_name="counting", interval=1.0, stop_time=3.5
        )
        net.simulator.run(3.5)
        count = len(agents[0].sent)
        net.simulator.run(5.0)
        assert count > 0
        assert len(agents[0].sent) == count == source.packets_sent

    def test_dead_source_does_not_send(self):
        net, agents = network_with_agents()
        CbrMulticastSource(net, 0, group=1, protocol_name="counting", interval=1.0)
        net.node(0).fail()
        net.simulator.run(5.0)
        assert agents[0].sent == []

    def test_invalid_parameters(self):
        net, _ = network_with_agents()
        with pytest.raises(ValueError):
            CbrMulticastSource(net, 0, 1, "counting", interval=0.0)
        with pytest.raises(ValueError):
            CbrMulticastSource(net, 0, 1, "counting", payload_bytes=0)

    def test_payload_sequence_increments(self):
        net, agents = network_with_agents()
        CbrMulticastSource(net, 0, group=7, protocol_name="counting", interval=1.0)
        net.simulator.run(4.0)
        sequences = [payload[1] for (_, payload, _, _) in agents[0].sent]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)


def churned_changes(rate, duration, seed, stop_time=None):
    """Membership changes churn makes on a two-member group of four nodes."""
    net, _ = network_with_agents()
    manager = MulticastGroupManager(net, seed=seed)
    manager.create_group(1, [0, 1])
    manager.start_churn(1, rate=rate, stop_time=stop_time)
    net.simulator.run(duration)
    return [change for change in manager.history if change.time > 0.0]


class TestPoissonSource:
    """Group churn is the simulator's Poisson process: exponential gaps at ``rate``."""

    def test_rate_roughly_matches(self):
        count = len(churned_changes(rate=2.0, duration=100.0, seed=5))
        assert 120 < count < 280    # ~200 expected

    def test_stop(self):
        changes = churned_changes(rate=5.0, duration=12.0, seed=6, stop_time=2.0)
        assert changes
        assert all(change.time <= 2.0 for change in changes)

    def test_invalid_rate(self):
        net, _ = network_with_agents()
        manager = MulticastGroupManager(net, seed=1)
        manager.create_group(1, [0])
        with pytest.raises(ValueError):
            manager.start_churn(1, rate=0.0)


class TestGroupManager:
    def test_create_group_joins_members(self):
        net, _ = network_with_agents()
        manager = MulticastGroupManager(net, seed=1)
        manager.create_group(1, [0, 2])
        assert manager.groups[1] == {0, 2}
        assert net.node(0).is_member(1)
        assert not net.node(1).is_member(1)

    def test_duplicate_group_rejected(self):
        net, _ = network_with_agents()
        manager = MulticastGroupManager(net, seed=1)
        manager.create_group(1, [0])
        with pytest.raises(ValueError):
            manager.create_group(1, [1])

    def test_create_random_group(self):
        net, _ = network_with_agents()
        manager = MulticastGroupManager(net, seed=2)
        members = manager.create_random_group(5, size=3)
        assert len(members) == 3
        assert manager.groups[5] == set(members)

    def test_random_group_too_large(self):
        net, _ = network_with_agents()
        manager = MulticastGroupManager(net, seed=2)
        with pytest.raises(ValueError):
            manager.create_random_group(5, size=100)

    def test_join_leave_history(self):
        net, _ = network_with_agents()
        manager = MulticastGroupManager(net, seed=3)
        manager.create_group(1, [0])
        manager.join(1, 2)
        manager.leave(1, 0)
        events = [(c.node_id, c.event) for c in manager.history]
        assert (2, GroupEvent.JOIN) in events
        assert (0, GroupEvent.LEAVE) in events
        assert manager.groups[1] == {2}

    def test_leave_nonmember_noop(self):
        net, _ = network_with_agents()
        manager = MulticastGroupManager(net, seed=3)
        manager.create_group(1, [0])
        manager.leave(1, 3)
        assert manager.groups[1] == {0}

    def test_churn_respects_min_members(self):
        net, _ = network_with_agents()
        manager = MulticastGroupManager(net, seed=4)
        manager.create_group(1, [0, 1])
        manager.start_churn(1, rate=5.0, min_members=1)
        net.simulator.run(30.0)
        assert len(manager.groups[1]) >= 1
        assert len(manager.history) > 2

    def test_observed_churn_rate(self):
        changes = churned_changes(rate=2.0, duration=20.0, seed=5)
        assert len(changes) / 20.0 > 0.0
        assert all(change.group == 1 for change in changes)

    def test_churn_requires_existing_group(self):
        net, _ = network_with_agents()
        manager = MulticastGroupManager(net, seed=4)
        with pytest.raises(ValueError):
            manager.start_churn(9, rate=1.0)
