"""Tests of the experiment harness (scenario building, runs, sweeps)."""

import dataclasses

import pytest

from repro.baselines.flooding import FLOODING_PROTOCOL, FloodingStack
from repro.core.protocol import HVDB_PROTOCOL, HVDBConfig, HVDBStack
from repro.experiments.orchestrator import SweepSpec, execute_run, expand_spec, summarize
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import PROTOCOLS, ScenarioConfig, build_scenario
from repro.metrics.collectors import format_table
from repro.simulation.stack import ProtocolStack


def tiny_config(protocol=HVDB_PROTOCOL, **overrides):
    base = ScenarioConfig(
        protocol=protocol,
        n_nodes=30,
        area_size=800.0,
        radio_range=250.0,
        max_speed=2.0,
        group_size=5,
        traffic_start=15.0,
        traffic_interval=2.0,
        hvdb=HVDBConfig(vc_cols=8, vc_rows=8, dimension=4),
        seed=5,
    )
    return dataclasses.replace(base, **overrides)


class TestScenarioBuilding:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="registered protocols"):
            build_scenario(tiny_config(protocol="nonexistent"))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_builds(self, protocol):
        scenario = build_scenario(tiny_config(protocol=protocol))
        assert len(scenario.network.nodes) == 30
        assert scenario.sources
        assert isinstance(scenario.stack, ProtocolStack)
        assert scenario.stack.name == protocol
        for node in scenario.network.nodes.values():
            assert node.has_agent(protocol)

    def test_hvdb_scenario_reports_backbone(self):
        scenario = build_scenario(tiny_config())
        assert isinstance(scenario.stack, HVDBStack)
        assert scenario.backbone_nodes() is not None

    def test_baseline_scenario_uniform_interface(self):
        # no special case: baselines answer the same stack interface,
        # with no backbone but real aggregate stats
        scenario = build_scenario(tiny_config(protocol=FLOODING_PROTOCOL))
        assert isinstance(scenario.stack, FloodingStack)
        assert scenario.backbone_nodes() is None
        assert set(scenario.protocol_stats()) == {"data_originated", "rebroadcasts"}

    def test_too_many_sources_rejected(self):
        with pytest.raises(ValueError, match="sources_per_group"):
            build_scenario(tiny_config(group_size=3, sources_per_group=4))

    def test_groups_created_with_requested_size(self):
        scenario = build_scenario(tiny_config(n_groups=2, group_size=4))
        assert len(scenario.groups.groups[1]) == 4
        assert len(scenario.groups.groups[2]) == 4

    def test_static_when_speed_zero(self):
        scenario = build_scenario(tiny_config(max_speed=0.0))
        before = {n: scenario.network.position_of(n) for n in scenario.network.nodes}
        scenario.start()
        scenario.network.simulator.run(10.0)
        after = {n: scenario.network.position_of(n) for n in scenario.network.nodes}
        assert before == after


class TestRunner:
    def test_run_scenario_produces_report(self):
        result = run_scenario(tiny_config(), duration=40.0)
        assert result.report.protocol == HVDB_PROTOCOL
        assert result.report.node_count == 30
        assert result.report.delivery.packets_originated > 0
        assert 0.0 <= result.report.delivery.delivery_ratio <= 1.0
        assert result.report.overhead.total_transmissions > 0

    def test_flooding_delivers_on_connected_network(self):
        result = run_scenario(tiny_config(protocol=FLOODING_PROTOCOL), duration=40.0)
        assert result.report.delivery.delivery_ratio > 0.5

    def test_during_run_hook_called_midway(self):
        calls = []
        run_scenario(
            tiny_config(protocol=FLOODING_PROTOCOL),
            duration=40.0,
            during_run=lambda scenario: calls.append(scenario.network.simulator.now),
        )
        assert len(calls) == 1
        assert calls[0] == pytest.approx(20.0)

    def test_before_run_hook(self):
        seen = []
        run_scenario(
            tiny_config(protocol=FLOODING_PROTOCOL),
            duration=30.0,
            before_run=lambda scenario: seen.append(len(scenario.network.nodes)),
        )
        assert seen == [30]

    def test_row_includes_extras(self):
        # a run's row leads with its swept params and seed, then its metrics
        base = tiny_config(protocol=FLOODING_PROTOCOL)
        spec = SweepSpec(name="row", base=base, grid={"n_nodes": [20]}, seeds=(5,), duration=20.0)
        row = execute_run(expand_spec(spec)[0]).row()
        assert list(row)[:2] == ["n_nodes", "seed"]
        assert row["n_nodes"] == 20 and row["seed"] == 5
        assert row["protocol"] == FLOODING_PROTOCOL


def run_grid(axis, values, duration):
    """Run one flooding scenario per value of ``axis``, in-process."""
    base = tiny_config(protocol=FLOODING_PROTOCOL)
    spec = SweepSpec(
        name="grid", base=base, grid={axis: values}, seeds=(base.seed,), duration=duration
    )
    return [run_scenario(run.config, duration=run.duration) for run in expand_spec(spec)]


class TestSweep:
    def test_sweep_varies_parameter(self):
        results = run_grid("n_nodes", [20, 40], duration=30.0)
        assert [r.config.n_nodes for r in results] == [20, 40]
        assert [r.report.node_count for r in results] == [20, 40]

    def test_sweep_extra_overrides(self):
        # a dict-valued axis value moves a second field with the swept one
        results = run_grid("max_speed", [{"max_speed": 0.0, "n_nodes": 25}], duration=20.0)
        assert results[0].config.max_speed == 0.0
        assert results[0].config.n_nodes == 25
        assert results[0].report.node_count == 25

    def test_results_table_contains_swept_column(self):
        # the CLI's summary: summarize() pools seeds, format_table() renders
        base = tiny_config(protocol=FLOODING_PROTOCOL)
        spec = SweepSpec(name="t", base=base, grid={"n_nodes": [20]}, seeds=(5,), duration=20.0)
        results = [execute_run(run) for run in expand_spec(spec)]
        table = format_table(summarize(results, metrics=["pdr"]), title="demo")
        assert "demo" in table
        assert "n_nodes" in table
        assert "20" in table
