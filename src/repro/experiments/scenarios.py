"""Scenario construction.

A :class:`ScenarioConfig` fully describes one simulation run: a *core*
section (deployment area, node count, motion, multicast workload, seed),
the registered names of the pluggable components (``protocol``, ``radio``,
``mac``, ``mobility``) and one typed per-protocol section per configurable
stack (:class:`~repro.core.protocol.HVDBConfig`,
:class:`~repro.baselines.sgm.SgmConfig`, ...).
:func:`build_scenario` resolves every name through :mod:`repro.registry`
and turns the config into a ready-to-run :class:`BuiltScenario` -- there
is no protocol-specific branching here: the selected
:class:`~repro.simulation.stack.ProtocolStack` installs itself and
answers ``backbone_nodes()`` / ``aggregate_stats()`` uniformly.

Sweep grids address the typed sections with dotted axes
(``"hvdb.dimension"``, ``"dsm.position_period"``) -- including the
physical-layer sections (``"sinr.capture_db"``,
``"csma_ca.duty_cycle"``; see :mod:`repro.simulation.phy` and
:data:`PHY_SECTIONS`); see :func:`config_axis_names` for the full axis
vocabulary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List

from repro.baselines.dsm import DSM_PROTOCOL, DsmConfig
from repro.baselines.flooding import FLOODING_PROTOCOL
from repro.baselines.sgm import SGM_PROTOCOL, SgmConfig
from repro.baselines.spbm import SPBM_PROTOCOL, SpbmConfig
from repro.core.protocol import HVDB_PROTOCOL, HVDBConfig
from repro.geo.area import Area
from repro.registry import MACS, MOBILITY_MODELS, PROTOCOL_STACKS, RADIOS, RegistryError
from repro.simulation.groups import MulticastGroupManager
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.node import MobileNode
from repro.simulation.phy import CsmaCaMacConfig, SinrRadioConfig
from repro.simulation.stack import ProtocolStack
from repro.simulation.traffic import CbrMulticastSource

#: the bundled protocol stacks.  A fixed literal, not a registry
#: snapshot, so grids built on it (e.g. ``protocol_comparison``) expand
#: identically in every process regardless of what third-party protocols
#: happen to be imported -- the byte-identical shard/merge guarantee
#: depends on that.  Third-party registrations extend the registry only.
PROTOCOLS = (
    HVDB_PROTOCOL,
    FLOODING_PROTOCOL,
    SGM_PROTOCOL,
    DSM_PROTOCOL,
    SPBM_PROTOCOL,
)


@dataclass
class ScenarioConfig:
    """Complete description of one simulation run."""

    # pluggable components, by registered name (see repro.registry)
    protocol: str = HVDB_PROTOCOL
    radio: str = "unit_disk"
    mac: str = "csma"
    mobility: str = "random_waypoint"

    # deployment and motion
    n_nodes: int = 100
    area_size: float = 2000.0           #: square area side length, metres
    radio_range: float = 250.0
    max_speed: float = 5.0              #: m/s; 0 gives a static network
    pause_time: float = 5.0
    mobility_step: float = 1.0
    seed: int = 1

    # multicast workload
    n_groups: int = 1
    group_size: int = 10
    sources_per_group: int = 1
    traffic_interval: float = 1.0       #: seconds between CBR packets
    payload_bytes: int = 512
    traffic_start: float = 30.0         #: warm-up before data traffic starts

    # typed per-protocol sections (dotted grid axes: "hvdb.dimension", ...)
    hvdb: HVDBConfig = field(default_factory=HVDBConfig)
    sgm: SgmConfig = field(default_factory=SgmConfig)
    dsm: DsmConfig = field(default_factory=DsmConfig)
    spbm: SpbmConfig = field(default_factory=SpbmConfig)

    # typed physical-layer sections (dotted grid axes: "sinr.capture_db",
    # "csma_ca.duty_cycle", ...); see PHY_SECTIONS for their cache-key
    # semantics
    sinr: SinrRadioConfig = field(default_factory=SinrRadioConfig)
    csma_ca: CsmaCaMacConfig = field(default_factory=CsmaCaMacConfig)

    def area(self) -> Area:
        return Area(self.area_size, self.area_size)


#: Physical-layer config sections tied to a pluggable component: the
#: section (key) only parameterises runs whose component field (value)
#: selects the same-named component.  The orchestrator's
#: :func:`~repro.experiments.orchestrator.canonical_config` drops
#: inactive sections from cache keys and artifact spec blocks, so adding
#: these sections did not invalidate the cached results (or change the
#: artifacts) of any pre-existing unit-disk/csma sweep -- and future phy
#: sections can follow the same rule.
PHY_SECTIONS = {"sinr": "radio", "csma_ca": "mac"}


def config_axis_names() -> frozenset:
    """Every name a sweep grid axis (or coupled override key) may use.

    Plain :class:`ScenarioConfig` field names, plus ``section.field`` for
    every field of each typed per-protocol section (any dataclass-valued
    config field is a section).
    """
    names = set()
    default = ScenarioConfig()
    for config_field in dataclasses.fields(ScenarioConfig):
        names.add(config_field.name)
        value = getattr(default, config_field.name)
        if dataclasses.is_dataclass(value):
            names.update(
                f"{config_field.name}.{sub.name}"
                for sub in dataclasses.fields(value)
            )
    return frozenset(names)


@dataclass
class BuiltScenario:
    """A ready-to-run scenario: network + workload + its protocol stack."""

    config: ScenarioConfig
    network: Network
    groups: MulticastGroupManager
    sources: List[CbrMulticastSource]
    stack: ProtocolStack

    def start(self) -> None:
        """Start the protocol stack (which starts the network)."""
        self.stack.start()

    def backbone_nodes(self) -> "List[int] | None":
        """Backbone node ids, or ``None`` for backbone-less protocols."""
        return self.stack.backbone_nodes()

    def protocol_stats(self) -> Dict[str, int]:
        """Protocol counters aggregated over the network."""
        return self.stack.aggregate_stats()


def build_scenario(config: ScenarioConfig) -> BuiltScenario:
    """Assemble a complete scenario for the configured protocol.

    Every pluggable component -- protocol stack, radio, MAC, mobility --
    is resolved by registered name; an unknown name raises
    :class:`~repro.registry.RegistryError` listing the alternatives.
    """
    stack_factory = PROTOCOL_STACKS.get(config.protocol)
    mobility_factory = MOBILITY_MODELS.get(config.mobility)
    radio = RADIOS.get(config.radio)(config)
    mac = MACS.get(config.mac)(config)

    node_ids = list(range(config.n_nodes))
    mobility = mobility_factory(config, node_ids)
    network = Network(
        NetworkConfig(
            area=config.area(),
            radio=radio,
            mac=mac,
            mobility_step=config.mobility_step,
            seed=config.seed,
        ),
        mobility,
    )
    for node_id in node_ids:
        network.add_node(MobileNode(node_id))

    stack = stack_factory()
    stack.install(network, config)
    # fail here, not at traffic_start deep in the event loop, if the
    # stack's agents do not actually speak the registered protocol name
    # (traffic sources address agents by config.protocol)
    missing = [
        node_id
        for node_id, node in network.nodes.items()
        if not node.has_agent(config.protocol)
    ]
    if missing:
        raise RegistryError(
            f"protocol stack registered as {config.protocol!r} "
            f"({type(stack).__name__}) attached no agent speaking "
            f"{config.protocol!r} on node(s) {missing[:3]}; its agents "
            f"must set protocol_name = {config.protocol!r}"
        )

    groups = MulticastGroupManager(network, seed=config.seed + 1)
    sources: List[CbrMulticastSource] = []
    for g in range(config.n_groups):
        group_id = g + 1
        members = groups.create_random_group(
            group_id, min(config.group_size, config.n_nodes), candidates=node_ids
        )
        if config.sources_per_group > len(members):
            raise ValueError(
                f"sources_per_group={config.sources_per_group} exceeds the "
                f"{len(members)} member(s) of group {group_id}; raise "
                "group_size (sources are distinct group members)"
            )
        for s in range(config.sources_per_group):
            sources.append(
                CbrMulticastSource(
                    network,
                    source_node=members[s],
                    group=group_id,
                    protocol_name=config.protocol,
                    interval=config.traffic_interval,
                    payload_bytes=config.payload_bytes,
                    start_time=config.traffic_start + 0.37 * s,
                    jitter=0.2,
                    seed=config.seed + 100 + s,
                )
            )
    return BuiltScenario(
        config=config, network=network, groups=groups, sources=sources, stack=stack
    )
