"""Tests of the pluggable protocol-stack API and component registries.

Covers the contracts the registry-driven scenario assembly rests on:
unknown protocol/radio/mac/mobility names fail eagerly with the list of
registered alternatives, typed per-protocol config sections round-trip
through the orchestrator's content-hash cache deterministically, a
``protocol`` grid axis expands/shards deterministically over all five
stacks, and a third-party stack registers with one decorated class.
"""

import dataclasses
import os

import pytest

from repro.core.membership import BroadcasterCriterion
from repro.core.protocol import HVDBConfig, HVDBParameters
from repro.core.qos import QoSRequirement
from repro.experiments.orchestrator import (
    SpecError,
    SweepSpec,
    expand_spec,
    merge_caches,
    run_sweep,
    shard_runs,
    validate_runs,
)
from repro.experiments.scenarios import (
    PROTOCOLS,
    ScenarioConfig,
    build_scenario,
    config_axis_names,
)
from repro.registry import PROTOCOL_STACKS, RegistryError, register_protocol
from repro.simulation.agent import ProtocolAgent
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.stack import AgentStack


def tiny_config(**overrides) -> ScenarioConfig:
    base = ScenarioConfig(
        protocol="hvdb",
        n_nodes=14,
        area_size=500.0,
        radio_range=250.0,
        max_speed=2.0,
        group_size=4,
        traffic_start=3.0,
        traffic_interval=2.0,
        seed=3,
    )
    return dataclasses.replace(base, **overrides)


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(name="tiny", base=tiny_config(), grid={}, seeds=(1,), duration=8.0)
    base.update(overrides)
    return SweepSpec(**base)


class TestRegistryErrors:
    def test_unknown_protocol_lists_alternatives(self):
        with pytest.raises(RegistryError) as excinfo:
            build_scenario(tiny_config(protocol="gossip"))
        message = str(excinfo.value)
        for name in PROTOCOLS:
            assert name in message

    @pytest.mark.parametrize(
        "field_name, value",
        [
            ("protocol", "no_such_protocol"),
            ("radio", "no_such_radio"),
            ("mac", "no_such_mac"),
            ("mobility", "no_such_mobility"),
        ],
    )
    def test_unknown_component_fails_eagerly(self, tmp_path, field_name, value):
        # a typo'd component name must fail before any run executes
        cache_dir = str(tmp_path / "cache")
        spec = tiny_spec(base=tiny_config(**{field_name: value}))
        with pytest.raises(SpecError, match=value):
            run_sweep(spec, workers=1, cache_dir=cache_dir)
        assert not os.path.exists(cache_dir)

    def test_error_message_lists_registered_radios(self):
        with pytest.raises(SpecError, match="unit_disk"):
            validate_runs(expand_spec(tiny_spec(base=tiny_config(radio="nope"))))

    def test_builtin_protocols_registered(self):
        assert set(PROTOCOLS) == {"hvdb", "flooding", "sgm", "dsm", "spbm"}
        assert set(PROTOCOLS) <= set(PROTOCOL_STACKS.names())

    def test_shadowing_a_registered_name_is_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            @register_protocol("hvdb")
            class _Impostor:  # pragma: no cover - never instantiated
                pass
        # re-decorating the same object is an idempotent no-op
        from repro.core.protocol import HVDBStack

        assert register_protocol("hvdb")(HVDBStack) is HVDBStack


class TestAxisVocabulary:
    def test_dotted_axes_cover_every_section_field(self):
        names = config_axis_names()
        assert "hvdb.dimension" in names
        assert "hvdb.params" in names
        assert "dsm.position_period" in names
        assert "sgm.fanout" in names
        assert "spbm.levels" in names
        assert {"protocol", "radio", "mac", "mobility"} <= names

    def test_unknown_dotted_axis_raises(self):
        with pytest.raises(SpecError, match="hvdb.dimenson"):
            expand_spec(tiny_spec(grid={"hvdb.dimenson": [2]}))

    def test_results_table_accepts_dotted_swept_axis(self):
        from repro.experiments.orchestrator import execute_run, summarize
        from repro.metrics.collectors import format_table

        spec = tiny_spec(
            grid={"hvdb.dimension": [2, 3]}, seeds=(tiny_config().seed,), duration=6.0
        )
        results = [execute_run(run) for run in expand_spec(spec)]
        rows = summarize(results, metrics=["pdr"])
        assert [row["hvdb.dimension"] for row in rows] == [2, 3]
        assert "hvdb.dimension" in format_table(rows, title="dims")


class TestTypedConfigHashing:
    def test_identical_nested_configs_hash_equal(self):
        make = lambda: tiny_spec(
            base=tiny_config(
                hvdb=HVDBConfig(
                    dimension=3,
                    params=HVDBParameters(max_logical_hops=2),
                    qos_requirements={1: QoSRequirement(max_delay=0.3)},
                )
            )
        )
        (a,), (b,) = expand_spec(make()), expand_spec(make())
        assert a.cache_key() == b.cache_key()

    def test_nested_field_changes_the_key(self):
        keys = set()
        for dimension in (2, 3):
            spec = tiny_spec(base=tiny_config(hvdb=HVDBConfig(dimension=dimension)))
            keys.add(expand_spec(spec)[0].cache_key())
        keys.add(
            expand_spec(
                tiny_spec(base=tiny_config(hvdb=HVDBConfig(dimension=2, vc_cols=4)))
            )[0].cache_key()
        )
        assert len(keys) == 3

    def test_qos_dict_insertion_order_irrelevant(self):
        forward = {1: QoSRequirement(max_delay=0.2), 2: QoSRequirement(max_delay=0.4)}
        backward = {2: QoSRequirement(max_delay=0.4), 1: QoSRequirement(max_delay=0.2)}
        keys = {
            expand_spec(
                tiny_spec(base=tiny_config(hvdb=HVDBConfig(qos_requirements=qos)))
            )[0].cache_key()
            for qos in (forward, backward)
        }
        assert len(keys) == 1

    def test_enum_valued_parameter_hashes_deterministically(self):
        keys = set()
        for criterion in (
            BroadcasterCriterion.NEIGHBORHOOD_MEMBERS,
            BroadcasterCriterion.NEIGHBORHOOD_MEMBERS,
            BroadcasterCriterion.MOST_GROUPS,
        ):
            params = HVDBParameters(broadcaster_criterion=criterion)
            spec = tiny_spec(base=tiny_config(hvdb=HVDBConfig(params=params)))
            keys.add(expand_spec(spec)[0].cache_key())
        assert len(keys) == 2

    def test_mobility_and_component_names_are_in_the_key(self):
        base_key = expand_spec(tiny_spec())[0].cache_key()
        for override in ({"mobility": "static"}, {"mac": "ideal"}, {"radio": "log_distance"}):
            other = expand_spec(tiny_spec(base=tiny_config(**override)))[0].cache_key()
            assert other != base_key

    def test_nested_config_round_trips_through_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = tiny_spec(
            base=tiny_config(
                hvdb=HVDBConfig(
                    dimension=3,
                    params=HVDBParameters(max_logical_hops=2),
                    qos_requirements={1: QoSRequirement(max_delay=0.5)},
                )
            )
        )
        first = run_sweep(spec, workers=1, cache_dir=cache_dir)
        second = run_sweep(spec, workers=1, cache_dir=cache_dir)
        assert all(not r.from_cache for r in first)
        assert all(r.from_cache for r in second)
        assert [r.metrics for r in first] == [r.metrics for r in second]


class TestProtocolAxis:
    def protocol_spec(self, **overrides) -> SweepSpec:
        return tiny_spec(grid={"protocol": list(PROTOCOLS)}, **overrides)

    def test_protocol_axis_expands_deterministically(self):
        runs_a = expand_spec(self.protocol_spec())
        runs_b = expand_spec(self.protocol_spec())
        assert [r.run_id for r in runs_a] == [r.run_id for r in runs_b]
        assert [r.config.protocol for r in runs_a] == list(PROTOCOLS)
        assert len({r.cache_key() for r in runs_a}) == len(PROTOCOLS)

    def test_protocol_axis_shards_deterministically(self):
        runs = expand_spec(self.protocol_spec())
        shards = [shard_runs(runs, i, 3) for i in (1, 2, 3)]
        ids = [r.run_id for shard in shards for r in shard]
        assert sorted(ids) == sorted(r.run_id for r in runs)
        assert shards == [shard_runs(expand_spec(self.protocol_spec()), i, 3) for i in (1, 2, 3)]

    def test_sharded_protocol_sweep_merges_byte_identical(self, tmp_path, monkeypatch, capsys):
        # the acceptance scenario: one registered spec sweeping `protocol`
        # over all five stacks survives --shard/merge with artifacts
        # byte-identical to an unsharded run of the same grid
        from repro.experiments import specs
        from repro.experiments.__main__ import main

        monkeypatch.setitem(specs.SPECS, "proto_all", self.protocol_spec(name="proto_all"))

        ref_out = str(tmp_path / "ref")
        assert main(
            ["run", "proto_all", "--cache-dir", str(tmp_path / "ref-cache"),
             "--out", ref_out, "--workers", "1"]
        ) == 0
        shard_dirs = []
        for index in (1, 2, 3):
            shard_dir = str(tmp_path / f"shard{index}")
            shard_dirs.append(shard_dir)
            assert main(
                ["run", "proto_all", "--shard", f"{index}/3", "--cache-dir", shard_dir,
                 "--out", str(tmp_path / "s"), "--format", "none", "--workers", "1"]
            ) == 0
        merged_out = str(tmp_path / "merged-out")
        args = ["merge", "proto_all", "--cache-dir", str(tmp_path / "merged"),
                "--out", merged_out]
        for shard_dir in shard_dirs:
            args += ["--from", shard_dir]
        assert main(args) == 0
        capsys.readouterr()

        with open(os.path.join(ref_out, "proto_all.csv"), "rb") as fh:
            reference_csv = fh.read()
        with open(os.path.join(merged_out, "proto_all.csv"), "rb") as fh:
            assert fh.read() == reference_csv


# ---------------------------------------------------------------------------
# Third-party extension: the docs' minimal stack, registered for real
# ---------------------------------------------------------------------------

UNITTEST_PROTOCOL = "unittest_gossip"


class _GossipAgent(ProtocolAgent):
    """Broadcast once, neighbours deliver; deliberately minimal."""

    protocol_name = UNITTEST_PROTOCOL

    def __init__(self) -> None:
        super().__init__()
        self.data_originated = 0

    def send_multicast(self, group, payload, size_bytes=512):
        packet = Packet(
            kind=PacketKind.DATA,
            protocol=UNITTEST_PROTOCOL,
            msg_type="data",
            source=self.node_id,
            group=group,
            payload=payload,
            size_bytes=size_bytes,
            created_at=self.now,
        )
        self.network.register_data_packet(packet, self.network.group_members(group))
        self.data_originated += 1
        if self.node.is_member(group):
            self.node.deliver_to_application(packet)
        self.node.broadcast(packet)

    def on_packet(self, packet, from_node):
        if packet.protocol != UNITTEST_PROTOCOL:
            return
        if packet.group is not None and self.node.is_member(packet.group):
            self.node.deliver_to_application(packet)


@register_protocol(UNITTEST_PROTOCOL)
class _GossipStack(AgentStack):
    name = UNITTEST_PROTOCOL
    stat_fields = ("data_originated",)

    def make_agent(self, config=None):
        return _GossipAgent()


@register_protocol("unittest_misnamed")
class _MisnamedStack(AgentStack):
    """Registered under one name, attaches agents speaking another."""

    name = "unittest_misnamed"
    stat_fields = ()

    def make_agent(self, config=None):
        return _GossipAgent()   # speaks "unittest_gossip", not "unittest_misnamed"


class TestThirdPartyStack:
    def test_agent_name_mismatch_fails_at_build_time(self):
        with pytest.raises(RegistryError, match="protocol_name"):
            build_scenario(tiny_config(protocol="unittest_misnamed"))

    def test_registered_stack_builds_and_reports(self):
        scenario = build_scenario(tiny_config(protocol=UNITTEST_PROTOCOL))
        assert isinstance(scenario.stack, _GossipStack)
        assert scenario.backbone_nodes() is None
        scenario.start()
        scenario.network.simulator.run(10.0)
        stats = scenario.protocol_stats()
        assert stats["data_originated"] > 0
