"""Control overhead metrics."""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.delivery import compute_delivery_metrics
from repro.simulation.network import Network


@dataclass(frozen=True, slots=True)
class OverheadMetrics:
    """Transmission-level overhead counters.

    Normalised overhead figures (``control_per_delivered``,
    ``transmissions_per_delivered``) are the standard MANET efficiency
    metrics: how many control packets / total transmissions the network
    spent per data packet successfully put into a member's hands.
    """

    control_packets: int
    control_bytes: int
    data_packets: int
    data_bytes: int
    total_transmissions: int
    achieved_deliveries: int
    control_per_delivered: float
    transmissions_per_delivered: float
    control_bytes_per_node_per_second: float


def compute_overhead_metrics(network: Network, duration: float) -> OverheadMetrics:
    """Compute overhead counters accumulated by ``network`` over ``duration`` seconds."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    stats = network.stats
    delivery = compute_delivery_metrics(network)
    achieved = delivery.achieved_deliveries
    node_count = max(1, len(network.nodes))
    return OverheadMetrics(
        control_packets=stats.control_transmissions,
        control_bytes=stats.control_bytes,
        data_packets=stats.data_transmissions,
        data_bytes=stats.data_bytes,
        total_transmissions=stats.transmissions,
        achieved_deliveries=achieved,
        control_per_delivered=(stats.control_transmissions / achieved) if achieved else float("inf"),
        transmissions_per_delivered=(stats.transmissions / achieved) if achieved else float("inf"),
        control_bytes_per_node_per_second=stats.control_bytes / node_count / duration,
    )
