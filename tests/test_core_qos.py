"""Unit tests for QoS requirements and QoS-aware route selection."""

import pytest

from repro.core.qos import (
    QoSRequirement,
    qos_satisfaction_ratio,
    route_satisfies,
    select_qos_route,
)
from repro.core.route_maintenance import LinkQoS, LogicalRoute


def route(path, delay, bandwidth=1e6):
    return LogicalRoute(path=tuple(path), qos=LinkQoS(delay=delay, bandwidth=bandwidth, measured_at=0.0))


class TestQoSRequirement:
    def test_defaults_accept_everything(self):
        req = QoSRequirement()
        assert req.is_met_by(delay=100.0, bandwidth=0.0)

    def test_delay_bound(self):
        req = QoSRequirement(max_delay=0.1)
        assert req.is_met_by(0.05, 0.0)
        assert not req.is_met_by(0.2, 0.0)

    def test_bandwidth_bound(self):
        req = QoSRequirement(min_bandwidth=1e6)
        assert req.is_met_by(1.0, 2e6)
        assert not req.is_met_by(1.0, 0.5e6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QoSRequirement(max_delay=0.0)
        with pytest.raises(ValueError):
            QoSRequirement(min_bandwidth=-1.0)

    def test_route_qos_satisfies(self):
        assert route_satisfies(
            route([0, 1], 0.05, 2e6), QoSRequirement(max_delay=0.1, min_bandwidth=1e6)
        )
        assert not route_satisfies(
            route([0, 1], 0.05, 0.5e6), QoSRequirement(max_delay=0.1, min_bandwidth=1e6)
        )


class TestRouteSelection:
    def test_route_satisfies(self):
        req = QoSRequirement(max_delay=0.1, min_bandwidth=1e6)
        assert route_satisfies(route([0, 1], 0.05, 2e6), req)
        assert not route_satisfies(route([0, 1], 0.5, 2e6), req)

    def test_select_prefers_fewest_hops_then_delay(self):
        req = QoSRequirement(max_delay=1.0)
        routes = [
            route([0, 1, 3], 0.01),
            route([0, 3], 0.05),
            route([0, 2, 3], 0.02),
        ]
        chosen = select_qos_route(routes, req)
        assert chosen.path == (0, 3)

    def test_select_skips_unqualified(self):
        req = QoSRequirement(max_delay=0.03)
        routes = [route([0, 3], 0.05), route([0, 1, 3], 0.02)]
        chosen = select_qos_route(routes, req)
        assert chosen.path == (0, 1, 3)

    def test_select_excludes_failed_nodes(self):
        req = QoSRequirement(max_delay=1.0)
        routes = [route([0, 1, 3], 0.01), route([0, 2, 3], 0.02)]
        chosen = select_qos_route(routes, req, exclude_hnids={1})
        assert chosen.path == (0, 2, 3)

    def test_select_none_when_nothing_qualifies(self):
        req = QoSRequirement(max_delay=0.001)
        assert select_qos_route([route([0, 1], 0.5)], req) is None

    def test_select_empty_routes(self):
        assert select_qos_route([], QoSRequirement()) is None


class TestAdmission:
    """A logical hop is admitted on the route ``select_qos_route`` picks;
    when it picks none the HVDB agent counts a QoS rejection."""

    def test_admission_returns_route(self):
        req = QoSRequirement(max_delay=0.1)
        admitted = select_qos_route([route([0, 1], 0.05)], req)
        assert admitted.path == (0, 1)

    def test_admission_raises_when_unsatisfiable(self):
        req = QoSRequirement(max_delay=0.01, min_bandwidth=1e9)
        assert select_qos_route([route([0, 1], 0.05)], req) is None


class TestSatisfactionRatio:
    def test_ratio(self):
        req = QoSRequirement(max_delay=0.1)
        assert qos_satisfaction_ratio([0.05, 0.2, 0.08, 0.11], req) == pytest.approx(0.5)

    def test_empty_delays(self):
        assert qos_satisfaction_ratio([], QoSRequirement(max_delay=0.1)) == 0.0

    def test_all_satisfied(self):
        assert qos_satisfaction_ratio([0.01, 0.02], QoSRequirement(max_delay=0.1)) == 1.0
