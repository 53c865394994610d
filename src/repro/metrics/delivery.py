"""Delivery ratio and delay metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.simulation.network import Network


@dataclass(frozen=True, slots=True)
class DeliveryMetrics:
    """Delivery and latency statistics over a set of originated data packets."""

    packets_originated: int
    intended_deliveries: int
    achieved_deliveries: int
    delivery_ratio: float
    mean_delay: float
    median_delay: float
    p95_delay: float
    max_delay: float


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    idx = fraction * (len(sorted_values) - 1)
    lo = math.floor(idx)
    hi = math.ceil(idx)
    if lo == hi:
        return sorted_values[lo]
    weight = idx - lo
    return sorted_values[lo] * (1 - weight) + sorted_values[hi] * weight


def compute_delivery_metrics(
    network: Network,
    group: Optional[int] = None,
    since: float = 0.0,
) -> DeliveryMetrics:
    """Compute delivery metrics from the network's delivery ledger.

    ``group`` restricts the computation to one multicast group; ``since``
    ignores packets originated before the given simulation time (useful to
    exclude a warm-up phase).
    """
    delays: List[float] = []
    intended = 0
    achieved = 0
    packets = 0
    for record in network.deliveries.values():
        if group is not None and record.group != group:
            continue
        if record.sent_at < since:
            continue
        packets += 1
        intended += len(record.intended)
        achieved += len(record.delivered)
        delays.extend(record.delays())
    delays.sort()
    mean_delay = sum(delays) / len(delays) if delays else 0.0
    return DeliveryMetrics(
        packets_originated=packets,
        intended_deliveries=intended,
        achieved_deliveries=achieved,
        delivery_ratio=(achieved / intended) if intended else 0.0,
        mean_delay=mean_delay,
        median_delay=_percentile(delays, 0.5),
        p95_delay=_percentile(delays, 0.95),
        max_delay=delays[-1] if delays else 0.0,
    )
