"""Multicast group membership management with churn.

Group membership in MANET multicast evaluations is dynamic: members join
and leave over time ("Each MN updates its Local-Membership when it joins
or leaves a multicast group", paper Figure 5 step 1).  The
:class:`MulticastGroupManager` assigns initial memberships and optionally
drives a Poisson join/leave churn process during the simulation.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.simulation.network import Network


class GroupEvent(enum.Enum):
    JOIN = "join"
    LEAVE = "leave"


@dataclass(frozen=True, slots=True)
class GroupChange:
    """A single membership change, recorded for convergence analysis."""

    time: float
    node_id: int
    group: int
    event: GroupEvent


class MulticastGroupManager:
    """Creates multicast groups and (optionally) churns their membership."""

    def __init__(self, network: Network, seed: Optional[int] = None) -> None:
        self.network = network
        self.rng = random.Random(seed)
        self.groups: Dict[int, Set[int]] = {}
        self.history: List[GroupChange] = []

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def create_group(self, group: int, members: Iterable[int]) -> None:
        """Create a group and join the given nodes immediately."""
        if group in self.groups:
            raise ValueError(f"group {group} already exists")
        self.groups[group] = set()
        for node_id in members:
            self.join(group, node_id)

    def create_random_group(
        self, group: int, size: int, candidates: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Create a group with ``size`` members sampled from ``candidates``."""
        pool = list(candidates) if candidates is not None else list(self.network.nodes.keys())
        if size > len(pool):
            raise ValueError(f"cannot pick {size} members from {len(pool)} candidates")
        members = self.rng.sample(pool, size)
        self.create_group(group, members)
        return members

    # ------------------------------------------------------------------
    # membership operations
    # ------------------------------------------------------------------
    def join(self, group: int, node_id: int) -> None:
        self.groups.setdefault(group, set())
        if node_id in self.groups[group]:
            return
        self.groups[group].add(node_id)
        self.network.node(node_id).join_group(group)
        self.history.append(
            GroupChange(self.network.simulator.now, node_id, group, GroupEvent.JOIN)
        )

    def leave(self, group: int, node_id: int) -> None:
        if group not in self.groups or node_id not in self.groups[group]:
            return
        self.groups[group].discard(node_id)
        self.network.node(node_id).leave_group(group)
        self.history.append(
            GroupChange(self.network.simulator.now, node_id, group, GroupEvent.LEAVE)
        )

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def start_churn(
        self,
        group: int,
        rate: float,
        candidates: Optional[Sequence[int]] = None,
        min_members: int = 1,
        stop_time: Optional[float] = None,
    ) -> None:
        """Drive Poisson join/leave churn on ``group``.

        ``rate`` is the expected number of membership changes per second.
        Each change is a leave of a random current member or a join of a
        random non-member (chosen with equal probability when both are
        possible, respecting ``min_members``).
        """
        if rate <= 0:
            raise ValueError("churn rate must be positive")
        if group not in self.groups:
            raise ValueError(f"group {group} does not exist")
        pool = list(candidates) if candidates is not None else list(self.network.nodes.keys())

        def churn_step() -> None:
            now = self.network.simulator.now
            if stop_time is not None and now > stop_time:
                return
            members = self.groups[group]
            non_members = [n for n in pool if n not in members]
            can_leave = len(members) > min_members
            can_join = bool(non_members)
            if can_leave and (not can_join or self.rng.random() < 0.5):
                node_id = self.rng.choice(sorted(members))
                self.leave(group, node_id)
            elif can_join:
                node_id = self.rng.choice(non_members)
                self.join(group, node_id)
            gap = self.rng.expovariate(rate)
            self.network.simulator.schedule(gap, churn_step)

        first_gap = self.rng.expovariate(rate)
        self.network.simulator.schedule(first_gap, churn_step)
