"""Cluster state and cluster-head election.

Election rule (paper Section 1 / [23]): among the CH-capable nodes whose
home virtual circle is this cluster, pick the one with

1. the longest predicted residence time in the circle, and
2. (tie-break) the smallest distance to the Virtual Circle Center (VCC).

Re-election hysteresis keeps the current CH unless a challenger is clearly
better, which is what makes the backbone "non-dynamic" in the paper's
terminology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.geo.geometry import Point, distance
from repro.geo.grid import VirtualCircle


@dataclass(frozen=True, slots=True)
class ClusterHeadCandidate:
    """One CH-capable node's election inputs."""

    node_id: int
    residence_time: float
    distance_to_vcc: float

    def score(self) -> Tuple[float, float, int]:
        """Sort key implementing the paper's two criteria.

        Larger residence time wins; then smaller distance to the VCC; the
        node id is the final deterministic tie-break.
        """
        return (-self.residence_time, self.distance_to_vcc, self.node_id)


def elect_cluster_head(
    candidates: Sequence[ClusterHeadCandidate],
    current_head: Optional[int] = None,
    hysteresis: float = 0.0,
) -> Optional[int]:
    """Elect a cluster head from ``candidates``.

    ``hysteresis`` in ``[0, 1)`` keeps the incumbent unless the best
    challenger's residence time exceeds the incumbent's by more than the
    given fraction (stability-first behaviour of [23]).  Returns ``None``
    when there are no candidates (the VCC is then just "a placeholder",
    paper Section 3).
    """
    if not candidates:
        return None
    if not 0.0 <= hysteresis < 1.0:
        raise ValueError("hysteresis must be in [0, 1)")
    ranked = sorted(candidates, key=lambda c: c.score())
    best = ranked[0]
    if current_head is not None:
        incumbent = next((c for c in candidates if c.node_id == current_head), None)
        if incumbent is not None:
            if best.node_id == incumbent.node_id:
                return incumbent.node_id
            threshold = incumbent.residence_time * (1.0 + hysteresis)
            if best.residence_time <= threshold:
                return incumbent.node_id
    return best.node_id


@dataclass
class Cluster:
    """One cluster: the virtual circle, its CH and its members."""

    circle: VirtualCircle
    head: Optional[int] = None
    members: Set[int] = field(default_factory=set)
