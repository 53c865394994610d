"""Load-balancing metrics.

The HVDB claim: "no single node is more loaded than any other nodes, and
no problem of bottlenecks exists, which is likely to occur in tree-based
architectures" (Section 5).  These metrics quantify that claim from the
per-node forwarding counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.simulation.network import Network


def jain_index(loads: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly even load; ``1/n`` means a single node carries
    everything.  An empty or all-zero load vector is perfectly fair by
    convention (nothing was carried at all).
    """
    values = [x for x in loads]
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(x * x for x in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def coefficient_of_variation(loads: Sequence[float]) -> float:
    """Standard deviation divided by the mean (0 = perfectly even)."""
    values = list(loads)
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((x - mean) ** 2 for x in values) / len(values)
    return math.sqrt(variance) / mean


def peak_to_mean(loads: Sequence[float]) -> float:
    """Maximum load divided by the mean load (1.0 = perfectly even)."""
    values = list(loads)
    if not values:
        return 1.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 1.0
    return max(values) / mean


@dataclass(frozen=True, slots=True)
class LoadBalanceMetrics:
    """Distribution statistics of per-node forwarding load."""

    node_count: int
    total_load: float
    max_load: float
    mean_load: float
    jain: float
    cov: float
    peak_to_mean_ratio: float


def forwarding_loads(
    network: Network, restrict_to: Optional[Iterable[int]] = None
) -> Dict[int, float]:
    """Per-node forwarding load: packets transmitted by each node.

    ``restrict_to`` limits the accounting to a subset of nodes -- e.g. the
    cluster heads, which is where the paper's load-balancing claim lives.
    """
    subset = set(restrict_to) if restrict_to is not None else None
    loads: Dict[int, float] = {}
    for node_id, node in network.nodes.items():
        if subset is not None and node_id not in subset:
            continue
        loads[node_id] = float(node.stats.sent_packets)
    return loads


def compute_load_balance(
    network: Network, restrict_to: Optional[Iterable[int]] = None
) -> LoadBalanceMetrics:
    loads = forwarding_loads(network, restrict_to)
    values = list(loads.values())
    total = sum(values)
    return LoadBalanceMetrics(
        node_count=len(values),
        total_load=total,
        max_load=max(values) if values else 0.0,
        mean_load=total / len(values) if values else 0.0,
        jain=jain_index(values),
        cov=coefficient_of_variation(values),
        peak_to_mean_ratio=peak_to_mean(values),
    )
