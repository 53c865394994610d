"""Unit tests for greedy geographic unicast routing."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geo.geometry import Point, distance
from repro.simulation.agent import ProtocolAgent
from repro.simulation.packet import Packet, PacketKind
from repro.unicast.greedy import greedy_next_hop, recovery_next_hop
from repro.unicast.router import GEO_PROTOCOL, GeoUnicastAgent

from tests.conftest import data_packet, make_static_network


class TestGreedySelection:
    def test_picks_neighbor_with_most_progress(self):
        neighbors = {1: Point(50.0, 0.0), 2: Point(80.0, 0.0), 3: Point(20.0, 50.0)}
        nxt = greedy_next_hop(Point(0.0, 0.0), Point(100.0, 0.0), neighbors)
        assert nxt == 2

    def test_returns_none_without_progress(self):
        neighbors = {1: Point(-50.0, 0.0), 2: Point(0.0, -60.0)}
        assert greedy_next_hop(Point(0.0, 0.0), Point(100.0, 0.0), neighbors) is None

    def test_excluded_neighbors_skipped(self):
        neighbors = {1: Point(80.0, 0.0), 2: Point(60.0, 0.0)}
        nxt = greedy_next_hop(Point(0.0, 0.0), Point(100.0, 0.0), neighbors, exclude={1})
        assert nxt == 2

    def test_empty_neighbors(self):
        assert greedy_next_hop(Point(0.0, 0.0), Point(1.0, 1.0), {}) is None

    def test_recovery_ignores_progress_requirement(self):
        neighbors = {1: Point(-50.0, 0.0), 2: Point(-20.0, 0.0)}
        nxt = recovery_next_hop(Point(0.0, 0.0), Point(100.0, 0.0), neighbors, visited=set())
        assert nxt == 2

    def test_recovery_skips_visited(self):
        neighbors = {1: Point(-20.0, 0.0), 2: Point(-50.0, 0.0)}
        nxt = recovery_next_hop(Point(0.0, 0.0), Point(100.0, 0.0), neighbors, visited={1})
        assert nxt == 2

    def test_recovery_all_visited(self):
        neighbors = {1: Point(-20.0, 0.0)}
        assert recovery_next_hop(Point(0.0, 0.0), Point(100.0, 0.0), neighbors, visited={1}) is None

    def test_path_stretch(self):
        # a greedy route's stretch: the length travelled over the straight line
        def stretch(positions, radio_range):
            route = [0]
            while route[-1] != 2:
                here = positions[route[-1]]
                in_range = {
                    n: p for n, p in positions.items()
                    if n != route[-1] and distance(here, p) <= radio_range
                }
                route.append(greedy_next_hop(here, positions[2], in_range))
            travelled = sum(distance(positions[a], positions[b]) for a, b in zip(route, route[1:]))
            return travelled / distance(positions[0], positions[2])

        straight = {0: Point(0.0, 0.0), 1: Point(50.0, 0.0), 2: Point(100.0, 0.0)}
        assert stretch(straight, 60.0) == pytest.approx(1.0)
        detour = {0: Point(0.0, 0.0), 1: Point(50.0, 50.0), 2: Point(100.0, 0.0)}
        assert stretch(detour, 80.0) == pytest.approx(2 ** 0.5)


def reference_greedy_next_hop(current, destination, neighbors, exclude=None):
    """Greedy selection as a plain loop over ``geometry.distance``."""
    exclude = exclude or set()
    best_id = None
    best_distance = distance(current, destination)
    for node_id, position in neighbors.items():
        if node_id in exclude:
            continue
        d = distance(position, destination)
        if d < best_distance - 1e-12:
            best_distance = d
            best_id = node_id
    return best_id


def reference_recovery_next_hop(current, destination, neighbors, visited):
    """Recovery selection as a plain loop over ``geometry.distance``."""
    best_id = None
    best_distance = float("inf")
    for node_id, position in neighbors.items():
        if node_id in visited:
            continue
        d = distance(position, destination)
        if d < best_distance:
            best_distance = d
            best_id = node_id
    return best_id


# a coarse integer lattice gives duplicate positions and exact distance
# ties (3-4-5 triangles); free floats cover the general case
_lattice = st.integers(min_value=-5, max_value=5).map(float)
_coords = st.one_of(_lattice, st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False))
_points = st.builds(Point, _coords, _coords)
# offsets around the 1e-12 progress margin, where squared distances or
# other rounding would pick differently
_nudges = st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13, 2e-12, -2e-12])


@st.composite
def _layouts(draw):
    """(current, destination, neighbours); some neighbours sit a nudge
    away from the current node, about as far from the destination as it."""
    current = draw(_points)
    destination = draw(_points)
    near_current = st.builds(
        lambda dx, dy: Point(current.x + dx, current.y + dy), _nudges, _nudges
    )
    neighbors = draw(st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.one_of(_points, near_current),
        max_size=12,
    ))
    return current, destination, neighbors


class TestNextHopMatchesReference:
    @given(
        layout=_layouts(),
        excluded=st.sets(st.integers(min_value=0, max_value=20), max_size=6),
        container=st.sampled_from([list, tuple, set]),
    )
    # duplicate positions; exact ties at distance 5; neighbours exactly as
    # far from the destination as the current node; one closer by less
    # than the margin
    @example((Point(1.0, 1.0), Point(0.0, 0.0), {1: Point(2.0, 2.0), 2: Point(2.0, 2.0)}), set(), list)
    @example(
        (
            Point(5.0, 5.0),
            Point(0.0, 0.0),
            {4: Point(3.0, 4.0), 2: Point(4.0, 3.0), 9: Point(0.0, 5.0), 1: Point(-5.0, 0.0)},
        ),
        {9},
        tuple,
    )
    @example((Point(3.0, 4.0), Point(0.0, 0.0), {7: Point(4.0, 3.0), 8: Point(5.0, 0.0)}), set(), set)
    @example((Point(3.0, 4.0), Point(0.0, 0.0), {3: Point(3.0, 4.0 - 5e-13)}), set(), list)
    def test_picks_match_reference(self, layout, excluded, container):
        current, destination, neighbors = layout
        exclude = container(sorted(excluded))
        assert greedy_next_hop(current, destination, neighbors) == (
            reference_greedy_next_hop(current, destination, neighbors)
        )
        assert greedy_next_hop(current, destination, neighbors, exclude=exclude) == (
            reference_greedy_next_hop(current, destination, neighbors, excluded)
        )
        assert recovery_next_hop(current, destination, neighbors, exclude) == (
            reference_recovery_next_hop(current, destination, neighbors, excluded)
        )


class SinkAgent(ProtocolAgent):
    """Records inner packets arriving at this node."""

    protocol_name = "sink"

    def __init__(self):
        super().__init__()
        self.received = []

    def on_packet(self, packet, from_node):
        if packet.protocol == "sink":
            self.received.append((packet, from_node))


def build_geo_network(positions, radio_range=150.0):
    net = make_static_network(positions, radio_range=radio_range)
    sinks = {}
    for node in net.nodes.values():
        node.attach_agent(GeoUnicastAgent())
        sink = SinkAgent()
        node.attach_agent(sink)
        sinks[node.node_id] = sink
    return net, sinks


def inner_packet(source, size=100):
    return Packet(
        kind=PacketKind.DATA,
        protocol="sink",
        msg_type="data",
        source=source,
        size_bytes=size,
        created_at=0.0,
    )


class TestGeoUnicastAgent:
    def test_multi_hop_delivery_along_line(self):
        positions = {i: Point(100.0 * i + 10.0, 500.0) for i in range(6)}
        net, sinks = build_geo_network(positions)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=5)
        net.simulator.run(2.0)
        assert len(sinks[5].received) == 1
        packet, _ = sinks[5].received[0]
        assert packet.hops == 5
        # intermediate nodes forwarded but did not deliver the inner packet
        assert sinks[3].received == []

    def test_local_delivery_without_radio(self):
        positions = {0: Point(10.0, 10.0), 1: Point(900.0, 900.0)}
        net, sinks = build_geo_network(positions)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=0)
        assert len(sinks[0].received) == 1
        assert net.stats.transmissions == 0

    def test_drop_when_destination_unreachable(self):
        positions = {0: Point(10.0, 10.0), 1: Point(900.0, 900.0)}
        net, sinks = build_geo_network(positions)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=1)
        net.simulator.run(2.0)
        assert sinks[1].received == []
        assert geo.dropped_no_route >= 1

    def test_drop_when_destination_dead(self):
        positions = {0: Point(10.0, 500.0), 1: Point(110.0, 500.0)}
        net, sinks = build_geo_network(positions)
        net.node(1).fail()
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=1)
        net.simulator.run(2.0)
        assert sinks[1].received == []

    def test_recovery_routes_around_void(self):
        # a concave "C"-shaped topology: greedy progress from node 1 stalls,
        # recovery must walk around the rim
        positions = {
            0: Point(100.0, 500.0),
            1: Point(220.0, 500.0),   # local maximum towards destination
            2: Point(220.0, 380.0),
            3: Point(340.0, 380.0),
            4: Point(460.0, 420.0),
            5: Point(460.0, 500.0),   # destination (out of range of 1)
        }
        net, sinks = build_geo_network(positions, radio_range=130.0)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=5)
        net.simulator.run(3.0)
        assert len(sinks[5].received) == 1

    def test_counters(self):
        positions = {i: Point(100.0 * i + 10.0, 500.0) for i in range(4)}
        net, _ = build_geo_network(positions)
        geo0 = net.node(0).agent(GEO_PROTOCOL)
        geo0.send(inner_packet(0), dest_node=3)
        net.simulator.run(2.0)
        geo3 = net.node(3).agent(GEO_PROTOCOL)
        assert geo0.sent == 1
        assert geo3.delivered == 1
        middle = net.node(1).agent(GEO_PROTOCOL)
        assert middle.forwarded >= 1

    def test_forwarding_one_copy_leaves_other_copies_visited_alone(self):
        positions = {i: Point(100.0 * i + 10.0, 500.0) for i in range(3)}
        net, sinks = build_geo_network(positions)
        geo0 = net.node(0).agent(GEO_PROTOCOL)
        envelopes = []
        geo0._forward = envelopes.append
        geo0.send(inner_packet(0), dest_node=2)
        (envelope,) = envelopes
        forwarded = envelope.copy_for_forwarding()
        sibling = envelope.copy_for_forwarding()
        net.node(1).agent(GEO_PROTOCOL).on_packet(forwarded, 0)
        assert list(forwarded.headers["visited"]) == [0, 1]
        assert list(envelope.headers["visited"]) == [0]
        assert list(sibling.headers["visited"]) == [0]
        net.simulator.run(2.0)
        assert len(sinks[2].received) == 1

    def test_envelope_size_includes_overhead(self):
        positions = {0: Point(10.0, 500.0), 1: Point(110.0, 500.0)}
        net, _ = build_geo_network(positions)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0, size=200), dest_node=1)
        assert net.stats.transmitted_bytes > 200
