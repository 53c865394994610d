"""QoS requirements and QoS-aware route selection.

The paper's QoS position (Sections 2.3 and 5): high availability and good
load balancing are the *prerequisites* for QoS in MANETs; concretely, a
session has delay and bandwidth constraints, the proactively maintained
local logical routes carry delay/bandwidth state, and the multiple
node-disjoint routes of the hypercube let a CH switch to an alternative
qualified route the moment the current one breaks, "without QoS being
degraded".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.route_maintenance import LogicalRoute


@dataclass(frozen=True, slots=True)
class QoSRequirement:
    """Per-session QoS constraints."""

    max_delay: float = float("inf")       #: end-to-end delay bound, seconds
    min_bandwidth: float = 0.0            #: required bandwidth, bits per second

    def __post_init__(self) -> None:
        if self.max_delay <= 0:
            raise ValueError("max_delay must be positive")
        if self.min_bandwidth < 0:
            raise ValueError("min_bandwidth must be non-negative")

    def is_met_by(self, delay: float, bandwidth: float) -> bool:
        return delay <= self.max_delay and bandwidth >= self.min_bandwidth


def route_satisfies(route: LogicalRoute, requirement: QoSRequirement) -> bool:
    """True if a local logical route meets the requirement."""
    return requirement.is_met_by(route.qos.delay, route.qos.bandwidth)


def select_qos_route(
    routes: Sequence[LogicalRoute],
    requirement: QoSRequirement,
    exclude_hnids: Optional[Iterable[int]] = None,
) -> Optional[LogicalRoute]:
    """Pick the best route satisfying ``requirement``.

    Candidates passing the QoS check are ranked by logical hop count, then
    delay; routes through any HNID in ``exclude_hnids`` (e.g. CHs known to
    have failed) are skipped.  Returns ``None`` when no candidate
    qualifies -- the caller may then fall back to the best-effort route.
    """
    excluded = set(exclude_hnids) if exclude_hnids else set()
    qualified: List[LogicalRoute] = []
    for route in routes:
        if excluded and any(h in excluded for h in route.path[1:]):
            continue
        if route_satisfies(route, requirement):
            qualified.append(route)
    if not qualified:
        return None
    qualified.sort(key=lambda r: (r.logical_hops, r.qos.delay))
    return qualified[0]


def qos_satisfaction_ratio(
    delays: Sequence[float],
    requirement: QoSRequirement,
) -> float:
    """Fraction of observed end-to-end delays meeting the delay bound."""
    if not delays:
        return 0.0
    ok = sum(1 for d in delays if d <= requirement.max_delay)
    return ok / len(delays)
