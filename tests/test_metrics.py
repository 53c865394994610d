"""Unit tests for the metrics layer."""

from types import SimpleNamespace

import pytest

from repro.experiments.specs import _availability
from repro.geo.geometry import Point
from repro.metrics.availability import compute_availability, windowed_delivery_ratio
from repro.metrics.collectors import collect_metrics, format_table
from repro.metrics.delivery import compute_delivery_metrics
from repro.metrics.fairness import (
    coefficient_of_variation,
    compute_load_balance,
    forwarding_loads,
    jain_index,
    peak_to_mean,
)
from repro.metrics.overhead import compute_overhead_metrics

from tests.conftest import control_packet, data_packet, make_static_network


def ledger_network(records):
    """Network with a synthetic delivery ledger.

    ``records`` is a list of (group, sent_at, intended, delivered_map).
    """
    net = make_static_network({0: Point(10, 10), 1: Point(100, 10)})
    for group, sent_at, intended, delivered in records:
        packet = data_packet("p", source=99, group=group, payload=None, size_bytes=10, now=sent_at)
        net.register_data_packet(packet, intended)
        record = net.deliveries[packet.uid]
        record.sent_at = sent_at
        for node, t in delivered.items():
            record.delivered[node] = t
    return net


class TestDeliveryMetrics:
    def test_ratio_and_delays(self):
        net = ledger_network(
            [
                (1, 0.0, [1, 2], {1: 0.1, 2: 0.3}),
                (1, 1.0, [1, 2], {1: 1.2}),
            ]
        )
        metrics = compute_delivery_metrics(net)
        assert metrics.packets_originated == 2
        assert metrics.intended_deliveries == 4
        assert metrics.achieved_deliveries == 3
        assert metrics.delivery_ratio == pytest.approx(0.75)
        assert metrics.mean_delay == pytest.approx((0.1 + 0.3 + 0.2) / 3)
        assert metrics.max_delay == pytest.approx(0.3)

    def test_group_filter(self):
        net = ledger_network(
            [
                (1, 0.0, [1], {1: 0.1}),
                (2, 0.0, [1, 2], {}),
            ]
        )
        assert compute_delivery_metrics(net, group=1).delivery_ratio == 1.0
        assert compute_delivery_metrics(net, group=2).delivery_ratio == 0.0

    def test_since_filter_excludes_warmup(self):
        net = ledger_network(
            [
                (1, 0.0, [1], {}),
                (1, 50.0, [1], {1: 50.1}),
            ]
        )
        assert compute_delivery_metrics(net, since=10.0).delivery_ratio == 1.0

    def test_empty_ledger(self):
        net = ledger_network([])
        metrics = compute_delivery_metrics(net)
        assert metrics.delivery_ratio == 0.0
        assert metrics.mean_delay == 0.0

    def test_percentiles_ordered(self):
        net = ledger_network(
            [(1, 0.0, list(range(1, 11)), {i: 0.01 * i for i in range(1, 11)})]
        )
        metrics = compute_delivery_metrics(net)
        assert metrics.median_delay <= metrics.p95_delay <= metrics.max_delay

    def test_as_row(self):
        net = ledger_network([(1, 0.0, [1], {1: 0.2})])
        row = collect_metrics(net, protocol="p", duration=1.0).flat_row()
        assert row["pdr"] == 1.0
        assert row["mean_delay"] == pytest.approx(0.2)


class TestFairness:
    def test_jain_perfectly_even(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_jain_single_hotspot(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_jain_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    def test_jain_bounds(self):
        values = [1, 7, 3, 9, 2]
        j = jain_index(values)
        assert 1.0 / len(values) <= j <= 1.0

    def test_cov(self):
        assert coefficient_of_variation([4, 4, 4]) == 0.0
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([1, 9]) > 0.5

    def test_peak_to_mean(self):
        assert peak_to_mean([2, 2, 2]) == pytest.approx(1.0)
        assert peak_to_mean([9, 1, 2]) == pytest.approx(9 / 4)
        assert peak_to_mean([]) == 1.0

    def test_forwarding_loads_and_restriction(self):
        net = make_static_network({0: Point(10, 10), 1: Point(100, 10), 2: Point(190, 10)})
        packet = data_packet("p", 0, 1, None, 10, 0.0)
        net.node(0).broadcast(packet)
        net.node(1).broadcast(packet.copy_for_forwarding())
        loads = forwarding_loads(net)
        assert loads[0] == 1 and loads[1] == 1 and loads[2] == 0
        restricted = forwarding_loads(net, restrict_to=[1, 2])
        assert set(restricted) == {1, 2}

    def test_compute_load_balance(self):
        net = make_static_network({0: Point(10, 10), 1: Point(100, 10)})
        net.node(0).broadcast(data_packet("p", 0, 1, None, 10, 0.0))
        metrics = compute_load_balance(net)
        assert metrics.node_count == 2
        assert metrics.total_load == 1
        assert metrics.max_load == 1
        assert 0.0 < metrics.jain <= 1.0


class TestOverhead:
    def test_counters_and_normalisation(self):
        net = ledger_network([(1, 0.0, [1, 2], {1: 0.1, 2: 0.2})])
        net.node(0).broadcast(control_packet("p", "beacon", 0, 50, 0.0))
        net.node(0).broadcast(data_packet("p", 0, 1, None, 100, 0.0))
        metrics = compute_overhead_metrics(net, duration=10.0)
        assert metrics.control_packets == 1
        assert metrics.data_packets == 1
        assert metrics.achieved_deliveries == 2
        assert metrics.control_per_delivered == pytest.approx(0.5)
        assert metrics.transmissions_per_delivered == pytest.approx(1.0)
        assert metrics.control_bytes_per_node_per_second == pytest.approx(50 / 2 / 10.0)

    def test_no_deliveries_gives_infinite_normalised_overhead(self):
        net = ledger_network([(1, 0.0, [1], {})])
        net.node(0).broadcast(control_packet("p", "beacon", 0, 50, 0.0))
        metrics = compute_overhead_metrics(net, duration=10.0)
        assert metrics.control_per_delivered == float("inf")

    def test_invalid_duration(self):
        net = ledger_network([])
        with pytest.raises(ValueError):
            compute_overhead_metrics(net, duration=0.0)


class TestAvailability:
    def test_windowed_delivery_ratio(self):
        net = ledger_network(
            [
                (1, 1.0, [1, 2], {1: 1.1, 2: 1.2}),   # window [0, 5): 100%
                (1, 6.0, [1, 2], {1: 6.1}),            # window [5, 10): 50%
            ]
        )
        net.simulator.run(15.0)
        series = windowed_delivery_ratio(net, window=5.0)
        assert series[0] == (0.0, 1.0)
        assert series[1] == (5.0, 0.5)
        assert series[2] == (10.0, 1.0)   # no traffic -> vacuous 1.0

    def test_windowed_invalid_window(self):
        net = ledger_network([])
        with pytest.raises(ValueError):
            windowed_delivery_ratio(net, window=0.0)

    def test_compute_availability(self):
        net = ledger_network(
            [
                (1, 1.0, [1, 2], {1: 1.1, 2: 1.2}),    # before failure: 100%
                (1, 11.0, [1, 2], {1: 11.3}),           # during failure: 50%
                (1, 21.0, [1, 2], {1: 21.1, 2: 21.2}),  # after recovery: 100%
            ]
        )
        net.simulator.run(30.0)
        metrics = compute_availability(net, failure_time=10.0, failure_duration=10.0, window=5.0)
        assert metrics.pre_failure_ratio == pytest.approx(1.0)
        assert metrics.during_failure_ratio == pytest.approx(0.5)
        assert metrics.post_failure_ratio == pytest.approx(1.0)
        assert metrics.availability == pytest.approx(0.5)
        assert metrics.recovery_time <= 20.0

    def test_as_row_handles_never_recovered(self):
        net = ledger_network(
            [
                (1, 1.0, [1], {1: 1.1}),
                (1, 11.0, [1], {}),
            ]
        )
        net.simulator.run(20.0)
        metrics = compute_availability(net, failure_time=10.0, failure_duration=10.0, window=5.0)
        assert metrics.recovery_time == float("inf")
        # E5's row keeps every metric a finite scalar: recovered=0, recovery_s=-1
        result = SimpleNamespace(
            scenario=SimpleNamespace(network=net), report=SimpleNamespace(duration=20.0)
        )
        row = _availability(result)
        assert row["recovered"] == 0.0
        assert row["recovery_s"] == -1.0

    def test_e5_row_of_a_recovered_run(self):
        # the collector fails at half the duration, for 20 s, in 10 s windows
        net = ledger_network(
            [
                (1, 5.0, [1], {1: 5.1}),
                (1, 25.0, [1], {}),                 # during the failure
                (1, 42.0, [1], {1: 42.2}),          # 12 s after it ends
            ]
        )
        net.simulator.run(60.0)
        result = SimpleNamespace(
            scenario=SimpleNamespace(network=net), report=SimpleNamespace(duration=40.0)
        )
        row = _availability(result)
        assert row["recovered"] == 1.0
        assert 0.0 <= row["recovery_s"] < float("inf")
        assert row["pdr_before"] == 1.0 and row["pdr_during"] == 0.0


class TestCollectors:
    def test_collect_metrics_report(self):
        net = ledger_network([(1, 0.0, [1], {1: 0.5})])
        report = collect_metrics(net, protocol="test", duration=10.0, backbone_nodes=[0])
        assert report.protocol == "test"
        assert report.node_count == 2
        assert report.backbone_load_balance is not None
        row = report.flat_row()
        assert row["protocol"] == "test"
        assert "pdr" in row and "jain" in row

    def test_format_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yyy", "c": 3}]
        table = format_table(rows, title="T")
        assert "T" in table
        assert "a" in table and "c" in table
        assert "22" in table

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"
