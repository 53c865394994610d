"""Assemble a full metrics report for one simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.metrics.delivery import DeliveryMetrics, compute_delivery_metrics
from repro.metrics.fairness import LoadBalanceMetrics, compute_load_balance
from repro.metrics.overhead import OverheadMetrics, compute_overhead_metrics
from repro.simulation.network import Network


@dataclass
class MetricsReport:
    """Everything an experiment reports for one run."""

    protocol: str
    node_count: int
    duration: float
    delivery: DeliveryMetrics
    overhead: OverheadMetrics
    load_balance: LoadBalanceMetrics
    backbone_load_balance: Optional[LoadBalanceMetrics] = None
    protocol_stats: Dict[str, int] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    def flat_row(self) -> dict:
        """Exhaustive flat dictionary of every figure in the report.

        It includes the raw counters, the full delay distribution, the
        backbone load-balance view (``backbone_``-prefixed) and the
        protocol counters -- everything a detached worker process needs to
        report so the orchestrator never has to ship a scenario object
        across a process boundary.  All values are plain scalars, so the
        result is picklable and JSON-serialisable.
        """
        row = {
            "protocol": self.protocol,
            "nodes": self.node_count,
            "duration": self.duration,
            "packets_originated": self.delivery.packets_originated,
            "intended_deliveries": self.delivery.intended_deliveries,
            "achieved_deliveries": self.delivery.achieved_deliveries,
            "pdr": self.delivery.delivery_ratio,
            "mean_delay": self.delivery.mean_delay,
            "median_delay": self.delivery.median_delay,
            "p95_delay": self.delivery.p95_delay,
            "max_delay": self.delivery.max_delay,
            "ctrl_pkts": self.overhead.control_packets,
            "ctrl_bytes": self.overhead.control_bytes,
            "data_pkts": self.overhead.data_packets,
            "data_bytes": self.overhead.data_bytes,
            "total_tx": self.overhead.total_transmissions,
            "ctrl_per_delivery": self.overhead.control_per_delivered,
            "tx_per_delivery": self.overhead.transmissions_per_delivered,
            "ctrl_bytes_per_node_per_s": self.overhead.control_bytes_per_node_per_second,
            "jain": self.load_balance.jain,
            "cov": self.load_balance.cov,
            "peak_to_mean": self.load_balance.peak_to_mean_ratio,
            "max_load": self.load_balance.max_load,
        }
        if self.backbone_load_balance is not None:
            backbone = self.backbone_load_balance
            row.update(
                {
                    "backbone_nodes": backbone.node_count,
                    "backbone_jain": backbone.jain,
                    "backbone_cov": backbone.cov,
                    "backbone_peak_to_mean": backbone.peak_to_mean_ratio,
                    "backbone_max_load": backbone.max_load,
                }
            )
        row.update(self.protocol_stats)
        row.update(self.extras)
        return row


def collect_metrics(
    network: Network,
    protocol: str,
    duration: float,
    backbone_nodes: Optional[Iterable[int]] = None,
    protocol_stats: Optional[Dict[str, int]] = None,
    group: Optional[int] = None,
) -> MetricsReport:
    """Build a :class:`MetricsReport` from a finished simulation.

    ``backbone_nodes`` (e.g. the cluster heads) adds a second load-balance
    view restricted to the backbone, which is where the paper's
    load-balancing claim applies.
    """
    return MetricsReport(
        protocol=protocol,
        node_count=len(network.nodes),
        duration=duration,
        delivery=compute_delivery_metrics(network, group=group),
        overhead=compute_overhead_metrics(network, duration),
        load_balance=compute_load_balance(network),
        backbone_load_balance=(
            compute_load_balance(network, backbone_nodes) if backbone_nodes else None
        ),
        protocol_stats=dict(protocol_stats or {}),
    )


def format_table(rows: Iterable[dict], title: Optional[str] = None) -> str:
    """Render rows (list of flat dicts) as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {c: len(str(c)) for c in columns}
    for row in rows:
        for c in columns:
            widths[c] = max(widths[c], len(str(row.get(c, ""))))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(" | ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
