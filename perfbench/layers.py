"""The calls a traced run wraps, and the per-layer metrics it reports.

Layers are named after the ``repro`` modules they cover.  Every entry of
:data:`SPANS` names a function or method and the span its calls record.
A module-level function is replaced in its module, which is where the
benchmark and the orchestrator look it up; a caller that imported it by
name keeps the original.  :func:`install` also wraps ``Simulator.schedule`` and
``schedule_at``, so every event callback runs inside a span of the layer
that owns it; a ``PeriodicTimer`` counts as its callback's owner.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Tuple

from tracer import Installation, NameTotals, Tracer, is_traced, layer_of

#: (module, attribute, span name) of every call the traced run wraps
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.simulation.engine", "Simulator.run_until", "engine.run"),
    ("repro.simulation.network", "Network._mobility_tick", "mobility.tick"),
    ("repro.simulation.network", "Network.transmit", "network.transmit"),
    ("repro.simulation.network", "Network.neighbors_of", "network.neighbor"),
    ("repro.simulation.packet", "Packet.copy_for_forwarding", "packet.copy"),
    ("repro.unicast.router", "GeoUnicastAgent.send", "unicast.send"),
    ("repro.unicast.router", "GeoUnicastAgent.on_packet", "unicast.rx"),
    ("repro.unicast.greedy", "greedy_next_hop", "unicast.next_hop"),
    ("repro.unicast.greedy", "recovery_next_hop", "unicast.next_hop"),
    ("repro.core.protocol", "HVDBProtocolAgent.on_packet", "core.rx"),
    ("repro.core.protocol", "HVDBProtocolAgent.send_multicast", "core.send"),
    ("repro.core.protocol", "HVDBStack._on_cluster_update", "core.model_build"),
    ("repro.core.route_maintenance", "LogicalRouteTable.update_neighbor", "core.route_table"),
    ("repro.core.route_maintenance", "LogicalRouteTable.integrate_advertisement", "core.route_table"),
    ("repro.core.route_maintenance", "LogicalRouteTable.prune_expired", "core.route_table"),
    ("repro.core.route_maintenance", "LogicalRouteTable.advertisement", "core.route_table"),
    ("repro.core.route_maintenance", "LogicalRouteTable.routes_to", "core.route_table"),
    ("repro.clustering.service", "ClusteringService.update", "clustering.update"),
    ("repro.baselines.flooding", "FloodingMulticastAgent.on_packet", "flooding.rx"),
    ("repro.baselines.flooding", "FloodingMulticastAgent.send_multicast", "flooding.send"),
    ("repro.experiments.scenarios", "build_scenario", "scenarios.build"),
    ("repro.experiments.scenarios", "BuiltScenario.start", "scenarios.start"),
    ("repro.metrics.collectors", "collect_metrics", "metrics.collect"),
    ("repro.experiments.scenarios", "BuiltScenario.backbone_nodes", "metrics.collect"),
    ("repro.experiments.scenarios", "BuiltScenario.protocol_stats", "metrics.collect"),
    ("repro.experiments.orchestrator", "run_sweep", "orchestrator.run_sweep"),
    ("repro.experiments.orchestrator", "expand_spec", "orchestrator.expand"),
    ("repro.experiments.orchestrator", "validate_runs", "orchestrator.validate"),
    ("repro.experiments.orchestrator", "RunSpec.cache_key", "orchestrator.cache_key"),
    ("repro.experiments.orchestrator", "export_json", "orchestrator.export_json"),
    ("repro.experiments.orchestrator", "export_csv", "orchestrator.export_csv"),
    ("repro.experiments.executors", "ProcessExecutor.map_runs", "executors.map_runs"),
    ("repro.experiments.stores", "JsonStore.put", "stores.put"),
)

#: owner-module prefix -> layer, for event callbacks not wrapped above
EVENT_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.simulation.network", "network"),
    ("repro.simulation.traffic", "traffic"),
    ("repro.simulation.groups", "traffic"),
    ("repro.mobility", "mobility"),
    ("repro.unicast", "unicast"),
    ("repro.core", "core"),
    ("repro.clustering", "clustering"),
    ("repro.baselines.flooding", "flooding"),
)

#: every layer time is attributed to; a span outside them is unattributed
LAYERS = (
    "engine", "mobility", "network", "packet", "unicast", "core", "clustering",
    "flooding", "traffic", "scenarios", "metrics", "orchestrator", "executors",
    "stores",
)

#: (name, unit) of every per-layer metric, in the order BENCHMARK.json
#: lists them.  Each ``*_s`` is a self time: span durations minus the
#: spans they called, so the layers add up to the traced wall time.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("engine.events", "count"),
    ("engine.scheduled", "count"),
    ("engine.self_s", "s"),
    ("mobility.ticks", "count"),
    ("mobility.self_s", "s"),
    ("network.transmit_calls", "count"),
    ("network.transmit_self_s", "s"),
    ("network.neighbor_queries", "count"),
    ("network.neighbor_s", "s"),
    ("network.deliver_s", "s"),
    ("network.self_s", "s"),
    ("network.frames", "count"),
    ("network.receptions", "count"),
    ("network.rx_per_frame", "ratio"),
    ("network.drops_loss", "count"),
    ("network.drops_out_of_range", "count"),
    ("network.drops_ttl", "count"),
    ("network.drops_duty_cycle", "count"),
    ("network.airtime", "sim_s"),
    ("packet.copies", "count"),
    ("packet.copy_s", "s"),
    ("unicast.sends", "count"),
    ("unicast.hops", "count"),
    ("unicast.hops_per_send", "ratio"),
    ("unicast.delivered_frac", "ratio"),
    ("unicast.no_route", "count"),
    ("unicast.self_s", "s"),
    ("unicast.next_hop_calls", "count"),
    ("unicast.next_hop_s", "s"),
    ("core.rx", "count"),
    ("core.rx_self_s", "s"),
    ("core.timer_s", "s"),
    ("core.route_table_s", "s"),
    ("core.model_rebuilds", "count"),
    ("core.model_build_s", "s"),
    ("core.ctrl_frames", "count"),
    ("core.self_s", "s"),
    ("core.local_membership_sent", "count"),
    ("core.mnt_summaries_sent", "count"),
    ("core.ht_summaries_broadcast", "count"),
    ("core.route_beacons_sent", "count"),
    ("core.data_originated", "count"),
    ("core.data_forwarded_mesh", "count"),
    ("core.data_forwarded_cube", "count"),
    ("core.data_delivered_local", "count"),
    ("core.failovers", "count"),
    ("core.qos_rejections", "count"),
    ("clustering.updates", "count"),
    ("clustering.self_s", "s"),
    ("clustering.head_changes", "count"),
    ("flooding.rx", "count"),
    ("flooding.self_s", "s"),
    ("flooding.dup_frac", "ratio"),
    ("traffic.self_s", "s"),
    ("scenarios.build_s", "s"),
    ("scenarios.start_s", "s"),
    ("metrics.collect_s", "s"),
    ("orchestrator.runs", "count"),
    ("orchestrator.expand_s", "s"),
    ("orchestrator.cache_key_s", "s"),
    ("orchestrator.export_json_s", "s"),
    ("orchestrator.export_csv_s", "s"),
    ("orchestrator.self_s", "s"),
    ("executors.map_runs_s", "s"),
    ("executors.exec_s", "s"),
    ("executors.busy_frac", "ratio"),
    ("executors.pickle_bytes", "bytes"),
    ("stores.puts", "count"),
    ("stores.put_s", "s"),
    ("stores.scan_s", "s"),
    ("stores.hits", "count"),
    ("stores.misses", "count"),
    ("stores.corrupt", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)

#: per-layer metric -> the span name whose call count it is
SPAN_COUNTS = {
    "engine.scheduled": "engine.schedule",
    "mobility.ticks": "mobility.tick",
    "network.transmit_calls": "network.transmit",
    "network.neighbor_queries": "network.neighbor",
    "packet.copies": "packet.copy",
    "unicast.next_hop_calls": "unicast.next_hop",
    "core.rx": "core.rx",
    "clustering.updates": "clustering.update",
    "flooding.rx": "flooding.rx",
    "stores.puts": "stores.put",
}

#: per-layer metric -> the span name whose self time it is
SPAN_SELF_TIMES = {
    "network.transmit_self_s": "network.transmit",
    "network.neighbor_s": "network.neighbor",
    "network.deliver_s": "network.deliver",
    "packet.copy_s": "packet.copy",
    "unicast.next_hop_s": "unicast.next_hop",
    "core.rx_self_s": "core.rx",
    "core.timer_s": "core.timer",
    "core.route_table_s": "core.route_table",
    "core.model_build_s": "core.model_build",
    "scenarios.build_s": "scenarios.build",
    "scenarios.start_s": "scenarios.start",
    "metrics.collect_s": "metrics.collect",
    "orchestrator.expand_s": "orchestrator.expand",
    "orchestrator.cache_key_s": "orchestrator.cache_key",
    "orchestrator.export_json_s": "orchestrator.export_json",
    "orchestrator.export_csv_s": "orchestrator.export_csv",
    "executors.map_runs_s": "executors.map_runs",
    "stores.put_s": "stores.put",
    "stores.scan_s": "stores.scan",
}


def event_span(target: Any, periodic: bool) -> str:
    """Span name of an event callback, from the module that defines it."""
    module = getattr(getattr(target, "__func__", target), "__module__", "") or ""
    layer = next(
        (layer for prefix, layer in EVENT_LAYERS if module.startswith(prefix)),
        "unowned",
    )
    if periodic:
        return f"{layer}.timer"
    # the only events network.py schedules are frame deliveries (the
    # closure in Network.transmit); its mobility tick is wrapped directly
    return "network.deliver" if layer == "network" else f"{layer}.event"


def _owner(module_name: str, attr: str) -> Tuple[Any, str]:
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), name


def _materialized(scan: Callable) -> Callable:
    # a span cannot stay open across a generator's yields, so the traced
    # scan reads every entry before it returns (its callers consume all)
    def materialized(self, keys=None):
        return iter(list(scan(self, keys)))

    return materialized


def install(tracer: Tracer) -> Installation:
    """Wrap every call of :data:`SPANS` and every scheduled event."""
    from repro.experiments.stores import ResultStore
    from repro.simulation.engine import PeriodicTimer, Simulator

    event_names: Dict[Tuple[Any, bool], str] = {}

    def traced_event(callback: Callable) -> Callable:
        timer = getattr(callback, "__self__", None)
        periodic = isinstance(timer, PeriodicTimer)
        target = timer.callback if periodic else callback
        if is_traced(target):
            return callback
        code = getattr(getattr(target, "__func__", target), "__code__", target)
        name = event_names.get((code, periodic))
        if name is None:
            name = event_names[(code, periodic)] = event_span(target, periodic)
        return tracer.wrap(callback, name)

    def scheduling(original: Callable) -> Callable:
        def schedule(self, when, callback, *args, **kwargs):
            return original(self, when, traced_event(callback), *args, **kwargs)

        return tracer.wrap(schedule, "engine.schedule")

    installation = Installation()
    try:
        for module_name, attr, span in SPANS:
            owner, name = _owner(module_name, attr)
            installation.patch(owner, name, tracer.wrap(vars(owner)[name], span))
        scan = vars(ResultStore)["scan"]
        installation.patch(ResultStore, "scan", tracer.wrap(_materialized(scan), "stores.scan"))
        for name in ("schedule", "schedule_at"):
            installation.patch(Simulator, name, scheduling(vars(Simulator)[name]))
    except BaseException:
        installation.uninstall()
        raise
    return installation


def span_metrics(totals: Dict[str, NameTotals]) -> Dict[str, float]:
    """Per-layer metrics read off the span totals of one traced run."""
    metrics: Dict[str, float] = {
        f"{layer}.self_s": 0.0 for layer in LAYERS
    }
    for name, entry in totals.items():
        layer = layer_of(name)
        if layer in LAYERS:
            metrics[f"{layer}.self_s"] += entry.self_s
    for metric, span in SPAN_COUNTS.items():
        metrics[metric] = totals[span].count if span in totals else 0
    for metric, span in SPAN_SELF_TIMES.items():
        metrics[metric] = totals[span].self_s if span in totals else 0.0
    return metrics
