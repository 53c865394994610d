"""Unit tests for proactive local logical route maintenance (paper Figure 4)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.route_maintenance import LinkQoS, LogicalRoute, LogicalRouteTable


def qos(delay=0.01, bandwidth=1e6, at=0.0):
    return LinkQoS(delay=delay, bandwidth=bandwidth, measured_at=at)


class TestLinkQoS:
    def test_combination_adds_delay_takes_min_bandwidth(self):
        combined = qos(0.01, 2e6, at=5.0).combined_with(qos(0.02, 1e6, at=3.0))
        assert combined.delay == pytest.approx(0.03)
        assert combined.bandwidth == pytest.approx(1e6)
        assert combined.measured_at == 3.0

    def test_records_reject_field_assignment(self):
        link = qos()
        route = LogicalRoute(path=(0, 1), qos=link)
        with pytest.raises(AttributeError):
            link.delay = 1.0
        with pytest.raises(AttributeError):
            route.path = (0, 2)
        assert link == qos() and hash(route) == hash(LogicalRoute((0, 1), qos()))


class TestLogicalRoute:
    def test_destination_and_hops(self):
        route = LogicalRoute(path=(0, 1, 3), qos=qos())
        assert route.logical_hops == 2

    def test_extended(self):
        # an advertised route is extended by the link to its advertiser
        table = LogicalRouteTable(own_hnid=0)
        table.update_neighbor(1, qos(0.01, 2e6))
        table.integrate_advertisement(1, [LogicalRoute(path=(1, 3), qos=qos(0.02, 1e6))], now=0.0)
        longer = table.routes_to(3)[0]
        assert longer.path == (0, 1, 3)
        assert longer.qos.delay == pytest.approx(0.03)
        assert longer.qos.bandwidth == pytest.approx(1e6)


class TestRouteTable:
    def test_direct_neighbor_creates_one_hop_route(self):
        table = LogicalRouteTable(own_hnid=0)
        table.update_neighbor(1, qos())
        best = table.routes_to(1)[0]
        assert best.path == (0, 1)
        assert best.logical_hops == 1

    def test_self_neighbor_rejected(self):
        table = LogicalRouteTable(own_hnid=0)
        with pytest.raises(ValueError):
            table.update_neighbor(0, qos())

    def test_advertisement_integration_builds_multihop_routes(self):
        # the paper's example: routes of CH 1000 include the 2-logical-hop
        # route 1000 -> 1100 -> 1101
        table = LogicalRouteTable(own_hnid=0b1000)
        table.update_neighbor(0b1100, qos(0.01))
        advertised = [LogicalRoute(path=(0b1100, 0b1101), qos=qos(0.02))]
        accepted = table.integrate_advertisement(0b1100, advertised, now=0.0)
        assert accepted == 1
        route = table.routes_to(0b1101)[0]
        assert route.path == (0b1000, 0b1100, 0b1101)
        assert route.logical_hops == 2
        assert route.qos.delay == pytest.approx(0.03)

    def test_advertisement_from_unknown_neighbor_ignored(self):
        table = LogicalRouteTable(own_hnid=0)
        accepted = table.integrate_advertisement(
            1, [LogicalRoute(path=(1, 3), qos=qos())], now=0.0
        )
        assert accepted == 0
        assert table.advertisement() == []

    def test_looping_routes_rejected(self):
        table = LogicalRouteTable(own_hnid=0)
        table.update_neighbor(1, qos())
        looping = [LogicalRoute(path=(1, 0), qos=qos()), LogicalRoute(path=(1, 3, 0), qos=qos())]
        assert table.integrate_advertisement(1, looping, now=0.0) == 0

    def test_hop_bound_enforced(self):
        table = LogicalRouteTable(own_hnid=0, max_logical_hops=2)
        table.update_neighbor(1, qos())
        too_long = [LogicalRoute(path=(1, 3, 7), qos=qos())]   # would be 3 hops from 0
        assert table.integrate_advertisement(1, too_long, now=0.0) == 0
        ok = [LogicalRoute(path=(1, 3), qos=qos())]
        assert table.integrate_advertisement(1, ok, now=0.0) == 1

    def test_multiple_routes_per_destination_kept_sorted(self):
        table = LogicalRouteTable(own_hnid=0, routes_per_destination=2)
        table.update_neighbor(1, qos(0.01))
        table.update_neighbor(2, qos(0.02))
        table.integrate_advertisement(1, [LogicalRoute(path=(1, 3), qos=qos(0.01))], now=0.0)
        table.integrate_advertisement(2, [LogicalRoute(path=(2, 3), qos=qos(0.05))], now=0.0)
        routes = table.routes_to(3)
        assert len(routes) == 2
        assert routes[0].qos.delay <= routes[1].qos.delay
        # the two routes are node-disjoint alternatives through different neighbours
        assert {r.path[1] for r in routes} == {1, 2}

    def test_routes_per_destination_cap(self):
        table = LogicalRouteTable(own_hnid=0, routes_per_destination=1)
        table.update_neighbor(1, qos(0.01))
        table.update_neighbor(2, qos(0.02))
        table.integrate_advertisement(1, [LogicalRoute(path=(1, 3), qos=qos(0.01))], now=0.0)
        table.integrate_advertisement(2, [LogicalRoute(path=(2, 3), qos=qos(0.05))], now=0.0)
        assert len(table.routes_to(3)) == 1

    def test_refresh_replaces_same_path(self):
        table = LogicalRouteTable(own_hnid=0)
        table.update_neighbor(1, qos(0.01, at=0.0))
        table.update_neighbor(1, qos(0.05, at=10.0))
        routes = table.routes_to(1)
        assert len(routes) == 1
        assert routes[0].qos.delay == pytest.approx(0.05)

    def test_prune_expired(self):
        table = LogicalRouteTable(own_hnid=0, expiry=5.0)
        table.update_neighbor(1, qos(at=0.0))
        assert table.prune_expired(now=10.0) == 1
        assert table.routes_to(1) == []

    def test_advertisement_one_route_per_destination(self):
        table = LogicalRouteTable(own_hnid=0, routes_per_destination=3)
        table.update_neighbor(1, qos(0.01))
        table.update_neighbor(2, qos(0.02))
        table.integrate_advertisement(1, [LogicalRoute(path=(1, 3), qos=qos())], now=0.0)
        table.integrate_advertisement(2, [LogicalRoute(path=(2, 3), qos=qos())], now=0.0)
        adv = table.advertisement()
        destinations = [r.path[-1] for r in adv]
        assert len(destinations) == len(set(destinations))
        assert set(destinations) == {1, 2, 3}

    def test_remove_neighbor_drops_dependent_routes(self):
        # a neighbour that stops beaconing takes its routes with it at expiry
        table = LogicalRouteTable(own_hnid=0, expiry=5.0)
        table.update_neighbor(1, qos(at=0.0))
        table.update_neighbor(2, qos(at=0.0))
        table.integrate_advertisement(1, [LogicalRoute(path=(1, 3), qos=qos(at=0.0))], now=0.0)
        table.integrate_advertisement(2, [LogicalRoute(path=(2, 3), qos=qos(at=0.0))], now=0.0)
        table.update_neighbor(2, qos(at=8.0))
        table.integrate_advertisement(2, [LogicalRoute(path=(2, 3), qos=qos(at=8.0))], now=8.0)
        assert [r.path[1] for r in table.advertisement()] == [2, 2]
        remaining = table.routes_to(3)
        assert remaining and all(r.path[1] == 2 for r in remaining)
        assert table.routes_to(1) == []

    def test_next_hop_chid(self):
        # the next logical hop is the second HNID of the best route
        table = LogicalRouteTable(own_hnid=0)
        table.update_neighbor(1, qos())
        table.integrate_advertisement(1, [LogicalRoute(path=(1, 3), qos=qos())], now=0.0)
        chid_lookup = {1: 101, 3: 103}
        assert chid_lookup[table.routes_to(3)[0].path[1]] == 101
        assert table.routes_to(9) == []

    def test_route_count_and_all_routes(self):
        table = LogicalRouteTable(own_hnid=0)
        table.update_neighbor(1, qos())
        table.update_neighbor(2, qos())
        assert len(table.routes_to(1)) + len(table.routes_to(2)) == 2
        assert len(table.advertisement()) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LogicalRouteTable(own_hnid=0, max_logical_hops=0)
        with pytest.raises(ValueError):
            LogicalRouteTable(own_hnid=0, routes_per_destination=0)


class ReferenceRouteTable:
    """The route table's update rules as they were written before the
    one-pass insert and the prune bound: rebuild, append, stable sort,
    truncate, and a full walk on every prune."""

    def __init__(self, own_hnid, max_logical_hops, routes_per_destination, expiry):
        self.own_hnid = own_hnid
        self.max_logical_hops = max_logical_hops
        self.routes_per_destination = routes_per_destination
        self.expiry = expiry
        self._routes = {}
        self._neighbor_qos = {}

    def update_neighbor(self, neighbor_hnid, qos):
        if neighbor_hnid == self.own_hnid:
            raise ValueError("a CH has no logical link to itself")
        self._neighbor_qos[neighbor_hnid] = qos
        direct = LogicalRoute(path=(self.own_hnid, neighbor_hnid), qos=qos)
        self._insert(direct)

    def integrate_advertisement(self, neighbor_hnid, advertised, now):
        link = self._neighbor_qos.get(neighbor_hnid)
        if link is None:
            return 0
        accepted = 0
        for route in advertised:
            if route.path[0] != neighbor_hnid:
                continue
            if self.own_hnid in route.path:
                continue
            total_hops = route.logical_hops + 1
            if total_hops > self.max_logical_hops:
                continue
            combined = LogicalRoute(
                path=(self.own_hnid,) + route.path,
                qos=link.combined_with(route.qos),
            )
            if self._insert(combined):
                accepted += 1
        self.prune_expired(now)
        return accepted

    def _insert(self, route):
        dest = route.path[-1]
        if dest == self.own_hnid:
            return False
        existing = self._routes.setdefault(dest, [])
        existing[:] = [r for r in existing if r.path != route.path]
        existing.append(route)
        existing.sort(key=lambda r: (r.logical_hops, r.qos.delay))
        if len(existing) > self.routes_per_destination:
            del existing[self.routes_per_destination:]
        return route in existing

    def prune_expired(self, now):
        dropped = 0
        for dest in list(self._routes.keys()):
            kept = [r for r in self._routes[dest] if now - r.qos.measured_at <= self.expiry]
            dropped += len(self._routes[dest]) - len(kept)
            if kept:
                self._routes[dest] = kept
            else:
                del self._routes[dest]
        return dropped

    def advertisement(self):
        return [routes[0] for routes in self._routes.values() if routes]


_HNIDS = st.integers(min_value=0, max_value=5)
# two delays only, so (logical hops, delay) keys tie often
_QOS = st.tuples(
    st.sampled_from([0.01, 0.02]),                # delay
    st.sampled_from([1e5, 5e5]),                  # bandwidth
    st.sampled_from([0.0, 0.5, 2.0, 2.5, 6.0]),   # age of the measurement
)
_OPERATIONS = st.one_of(
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0])),
    st.tuples(st.just("update"), _HNIDS, _QOS),
    st.tuples(
        st.just("advertise"),
        _HNIDS,
        # (starts at the advertising neighbour?, else its first hop, rest, qos)
        st.lists(
            st.tuples(
                st.sampled_from([True, True, True, False]),
                _HNIDS,
                st.lists(_HNIDS, min_size=1, max_size=3),
                _QOS,
            ),
            max_size=6,
        ),
    ),
    st.tuples(st.just("prune")),
)

_FRESH = (0.01, 1e5, 0.0)


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestRouteTableMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(
        own=_HNIDS,
        max_logical_hops=st.integers(min_value=1, max_value=4),
        routes_per_destination=st.integers(min_value=1, max_value=3),
        expiry=st.sampled_from([1.0, 2.5, 5.0]),
        operations=st.lists(_OPERATIONS, max_size=40),
    )
    # two equal-key routes to 3; refreshing the first moves it behind the other
    @example(
        own=0,
        max_logical_hops=2,
        routes_per_destination=3,
        expiry=5.0,
        operations=[
            ("update", 1, _FRESH),
            ("update", 2, _FRESH),
            ("advertise", 1, [(True, 0, [3], _FRESH)]),
            ("advertise", 2, [(True, 0, [3], _FRESH)]),
            ("advertise", 1, [(True, 0, [3], _FRESH)]),
        ],
    )
    # a route exactly at the expiry survives a prune, half a second later
    # it is dropped
    @example(
        own=0,
        max_logical_hops=1,
        routes_per_destination=1,
        expiry=2.5,
        operations=[
            ("update", 1, _FRESH),
            ("tick", 2.5),
            ("prune",),
            ("tick", 0.5),
            ("prune",),
        ],
    )
    def test_every_step_matches_reference(
        self, own, max_logical_hops, routes_per_destination, expiry, operations
    ):
        params = (own, max_logical_hops, routes_per_destination, expiry)
        table = LogicalRouteTable(*params)
        reference = ReferenceRouteTable(*params)
        now = 0.0

        def link(delay, bandwidth, age):
            return LinkQoS(delay, bandwidth, now - age)

        for operation in operations:
            kind = operation[0]
            if kind == "tick":
                now += operation[1]
                continue
            if kind == "update":
                args = (operation[1], link(*operation[2]))
                name = "update_neighbor"
            elif kind == "advertise":
                neighbor = operation[1]
                advertised = [
                    LogicalRoute(((neighbor,) if first else (other,)) + tuple(tail), link(*q))
                    for first, other, tail, q in operation[2]
                ]
                args = (neighbor, advertised, now)
                name = "integrate_advertisement"
            else:
                args = (now,)
                name = "prune_expired"
            assert _outcome(getattr(table, name), *args) == (
                _outcome(getattr(reference, name), *args)
            ), operation
            assert list(table._routes.items()) == list(reference._routes.items())
            assert table.advertisement() == reference.advertisement()
            assert table._neighbor_qos == reference._neighbor_qos
