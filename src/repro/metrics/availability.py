"""Availability metrics: delivery under failures and recovery time.

"High availability indicates that a network has the capability of hiding
or quickly responding to faults, making users no sense of faults in the
network" (paper Section 2.3).  The operational measurements here are:
windowed delivery ratio over time, the availability during a failure
window, and the recovery time until delivery returns to (a fraction of)
its pre-failure level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.simulation.network import Network


def windowed_delivery_ratio(
    network: Network, window: float, end_time: Optional[float] = None
) -> List[Tuple[float, float]]:
    """Delivery ratio per time window.

    Returns a list of ``(window_start, delivery_ratio)`` covering
    ``[0, end_time)``.  A window with no originated packets reports a
    ratio of 1.0 (nothing to deliver, nothing missed).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    end = end_time if end_time is not None else network.simulator.now
    buckets: Dict[int, Tuple[int, int]] = {}
    for record in network.deliveries.values():
        idx = int(record.sent_at // window)
        intended, delivered = buckets.get(idx, (0, 0))
        buckets[idx] = (intended + len(record.intended), delivered + len(record.delivered))
    series: List[Tuple[float, float]] = []
    idx = 0
    while idx * window < end:
        intended, delivered = buckets.get(idx, (0, 0))
        ratio = (delivered / intended) if intended else 1.0
        series.append((idx * window, ratio))
        idx += 1
    return series


@dataclass(frozen=True, slots=True)
class AvailabilityMetrics:
    """Availability figures around a failure injection."""

    pre_failure_ratio: float
    during_failure_ratio: float
    post_failure_ratio: float
    availability: float          #: during-failure ratio / pre-failure ratio (capped at 1)
    recovery_time: float         #: seconds from the failure until recovery (inf if never)


def _ratio_between(network: Network, start: float, end: float) -> float:
    intended = 0
    delivered = 0
    for record in network.deliveries.values():
        if start <= record.sent_at < end:
            intended += len(record.intended)
            delivered += len(record.delivered)
    return (delivered / intended) if intended else 1.0


def compute_availability(
    network: Network,
    failure_time: float,
    failure_duration: float,
    window: float = 5.0,
    recovery_threshold: float = 0.9,
) -> AvailabilityMetrics:
    """Availability metrics around a failure injected at ``failure_time``.

    * ``pre_failure_ratio`` -- delivery ratio over ``[0, failure_time)``.
    * ``during_failure_ratio`` -- over ``[failure_time, failure_time + failure_duration)``.
    * ``post_failure_ratio`` -- from the end of the failure to "now".
    * ``recovery_time`` -- the time after ``failure_time`` of the first
      window whose delivery ratio reaches ``recovery_threshold`` times the
      pre-failure ratio (``inf`` if that never happens).
    """
    pre = _ratio_between(network, 0.0, failure_time)
    during = _ratio_between(network, failure_time, failure_time + failure_duration)
    post = _ratio_between(network, failure_time + failure_duration, network.simulator.now)
    target = recovery_threshold * pre
    recovery = float("inf")
    for start, ratio in windowed_delivery_ratio(network, window):
        if start < failure_time:
            continue
        # only count windows that actually carried traffic
        carried = any(
            start <= rec.sent_at < start + window and rec.intended
            for rec in network.deliveries.values()
        )
        if carried and ratio >= target:
            recovery = start + window - failure_time
            break
    availability = min(1.0, during / pre) if pre > 0 else 1.0
    return AvailabilityMetrics(
        pre_failure_ratio=pre,
        during_failure_ratio=during,
        post_failure_ratio=post,
        availability=availability,
        recovery_time=recovery,
    )
