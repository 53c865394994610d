"""End-to-end integration tests: full scenarios with mobility, traffic,
failures and baselines, exercising the public API exactly the way the
benchmarks and examples do."""

import dataclasses

import pytest

from repro.core.protocol import HVDB_PROTOCOL, HVDBConfig
from repro.core.qos import QoSRequirement
from repro.experiments.orchestrator import SweepSpec, expand_spec
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.metrics.availability import compute_availability
from repro.metrics.delivery import compute_delivery_metrics
from repro.metrics.fairness import compute_load_balance


BASE = ScenarioConfig(
    protocol=HVDB_PROTOCOL,
    n_nodes=70,
    area_size=1200.0,
    radio_range=250.0,
    max_speed=3.0,
    group_size=8,
    traffic_start=25.0,
    traffic_interval=1.0,
    hvdb=HVDBConfig(vc_cols=8, vc_rows=8, dimension=4),
    seed=11,
)


class TestHvdbEndToEnd:
    def test_hvdb_delivers_majority_of_packets(self):
        result = run_scenario(BASE, duration=80.0)
        delivery = result.report.delivery
        assert delivery.packets_originated >= 40
        assert delivery.delivery_ratio > 0.6
        assert 0.0 < delivery.mean_delay < 2.0

    def test_protocol_stats_are_consistent(self):
        result = run_scenario(BASE, duration=80.0)
        stats = result.report.protocol_stats
        assert stats["data_originated"] == result.report.delivery.packets_originated
        assert stats["local_membership_sent"] > 0
        assert stats["mnt_summaries_sent"] > 0
        assert stats["route_beacons_sent"] > 0
        assert stats["ht_summaries_broadcast"] > 0

    def test_backbone_carries_load_without_single_hotspot(self):
        result = run_scenario(BASE, duration=80.0)
        backbone = result.report.backbone_load_balance
        assert backbone is not None and backbone.node_count > 5
        # the paper's load-balancing claim: no single CH dominates
        assert backbone.jain > 0.3
        assert backbone.peak_to_mean_ratio < 8.0

    def test_flooding_vs_hvdb_data_transmissions(self):
        hvdb = run_scenario(BASE, duration=80.0)
        flood = run_scenario(
            dataclasses.replace(BASE, protocol="flooding"), duration=80.0
        )
        # flooding must transmit each packet once per node; HVDB's data-plane
        # cost per originated packet is far below that
        hvdb_cost = (
            hvdb.report.overhead.data_packets / hvdb.report.delivery.packets_originated
        )
        flood_cost = (
            flood.report.overhead.data_packets / flood.report.delivery.packets_originated
        )
        assert flood_cost > 0.8 * BASE.n_nodes
        assert hvdb_cost < 0.7 * flood_cost

    def test_qos_requirement_mostly_satisfied_in_modest_network(self):
        config = dataclasses.replace(
            BASE,
            hvdb=dataclasses.replace(
                BASE.hvdb, qos_requirements={1: QoSRequirement(max_delay=1.0)}
            ),
        )
        result = run_scenario(config, duration=80.0)
        delivery = result.report.delivery
        assert delivery.p95_delay < 1.0


class TestFailureInjection:
    def test_delivery_survives_partial_ch_failure(self):
        def kill_some_chs(scenario):
            backbone = scenario.stack.model.cluster_heads()
            victims = backbone[:: max(1, len(backbone) // 5)][:4]
            scenario.network.fail_nodes(victims)

        result = run_scenario(BASE, duration=100.0, during_run=kill_some_chs)
        availability = compute_availability(
            result.scenario.network, failure_time=50.0, failure_duration=20.0, window=10.0
        )
        # before the failure the protocol delivered something; afterwards it recovers
        assert availability.pre_failure_ratio > 0.5
        assert availability.post_failure_ratio > 0.4
        assert result.report.delivery.delivery_ratio > 0.4

    def test_clustering_replaces_failed_cluster_heads(self):
        scenario = build_scenario(BASE)
        scenario.start()
        scenario.network.simulator.run(30.0)
        before = set(scenario.stack.model.cluster_heads())
        victims = list(before)[:5]
        scenario.network.fail_nodes(victims)
        scenario.network.simulator.run(20.0)
        after = set(scenario.stack.model.cluster_heads())
        assert not (after & set(victims))
        assert after, "backbone must still exist after failures"


class TestMultiGroup:
    def test_two_groups_are_isolated(self):
        config = dataclasses.replace(BASE, n_groups=2, group_size=6, seed=21)
        result = run_scenario(config, duration=80.0)
        net = result.scenario.network
        g1 = compute_delivery_metrics(net, group=1)
        g2 = compute_delivery_metrics(net, group=2)
        assert g1.packets_originated > 0 and g2.packets_originated > 0
        # members of group 2 never appear as intended receivers of group 1 packets
        members2 = set(result.scenario.groups.groups[2]) - set(
            result.scenario.groups.groups[1]
        )
        for record in net.deliveries.values():
            if record.group == 1:
                assert not (record.intended & members2 - set(result.scenario.groups.groups[1]))


class TestSweepsSmoke:
    def test_node_count_sweep_runs(self):
        spec = SweepSpec(
            name="nodes",
            base=dataclasses.replace(BASE, max_speed=0.0, traffic_interval=2.0),
            grid={"n_nodes": [40, 80]},
            seeds=(BASE.seed,),
            duration=60.0,
        )
        results = [run_scenario(run.config, duration=run.duration) for run in expand_spec(spec)]
        assert len(results) == 2
        for result in results:
            assert result.report.delivery.packets_originated > 0

    def test_dimension_sweep_runs(self):
        spec = SweepSpec(
            name="dims",
            base=dataclasses.replace(BASE, traffic_interval=2.0),
            grid={"hvdb.dimension": [2, 4]},
            seeds=(BASE.seed,),
            duration=50.0,
        )
        results = [run_scenario(run.config, duration=run.duration) for run in expand_spec(spec)]
        assert [r.config.hvdb.dimension for r in results] == [2, 4]
        for result in results:
            assert 0.0 <= result.report.delivery.delivery_ratio <= 1.0
