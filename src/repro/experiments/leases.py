"""Lease/heartbeat/stale-reclaim semantics of the work-stealing executor.

The ``tcp`` backend hands out *leases* on pending runs to remote workers
(an in-memory table on the coordinator,
:class:`~repro.experiments.net.coordinator.Coordinator`) under this
state machine:

* a pending run may be **claimed** by exactly one worker at a time;
* the holder refreshes the lease's **heartbeat** while executing;
* a lease whose heartbeat is older than ``stale_after`` is **abandoned**
  (the worker crashed or went silent mid-run) and may be **reclaimed**,
  after which the run is re-leased to another worker and re-executed --
  churn never loses a run, and deterministic results make the
  re-execution byte-identical;
* a dispossessed worker (its stale lease was stolen) must never refresh
  or release the *new* holder's lease.

This module is the home of that protocol's constants and rules --
:data:`DEFAULT_STALE_AFTER` and :func:`is_stale` -- plus the pieces that
do not depend on the transport: :class:`LeaseTable`, the in-memory
implementation the TCP coordinator drives from its own clock, and
:class:`ExecutorStats`, the robustness counters surfaced in the run
summary (leases reclaimed, workers seen/lost, runs re-executed after
churn).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: seconds without a heartbeat before a lease counts as abandoned and
#: may be reclaimed by another worker
DEFAULT_STALE_AFTER = 60.0


def is_stale(age: float, stale_after: float) -> bool:
    """The reclaim rule: a lease is abandoned iff its heartbeat is older
    than ``stale_after`` seconds.

    ``age`` must be measured on a single clock the judging side owns --
    the coordinator's monotonic clock for TCP -- never by comparing
    timestamps produced by different machines.
    """
    return age > stale_after


class LeaseLost(OSError):
    """A heartbeat or release was attempted on a lease the worker no
    longer holds (it went stale and another worker reclaimed it)."""


@dataclass
class ExecutorStats:
    """Churn counters a work-stealing backend surfaces in the run summary.

    These counters make worker churn first-class output of
    ``run_sweep`` for the ``tcp`` backend.
    """

    leases_reclaimed: int = 0   #: leases broken after crash/silence/disconnect
    workers_seen: int = 0       #: distinct workers that participated
    workers_lost: int = 0       #: workers that disconnected or went silent mid-run
    runs_reexecuted: int = 0    #: runs completed after at least one reclaim

    def __bool__(self) -> bool:
        return any(dataclasses.astuple(self))

    def add(self, other: "ExecutorStats") -> None:
        """Fold ``other``'s counters into this one (cumulative summaries)."""
        self.leases_reclaimed += other.leases_reclaimed
        self.workers_seen += other.workers_seen
        self.workers_lost += other.workers_lost
        self.runs_reexecuted += other.runs_reexecuted

    def describe(self) -> str:
        """The one-line churn summary ``run_sweep`` logs when non-zero."""
        return (
            f"{self.leases_reclaimed} lease(s) reclaimed, "
            f"{self.runs_reexecuted} run(s) re-executed, "
            f"{self.workers_seen} worker(s) seen, {self.workers_lost} lost"
        )


@dataclass
class Lease:
    """One held lease: which worker holds which task, and its liveness."""

    task_id: str
    owner: str
    last_beat: float              #: judging side's clock at last sign of life


@dataclass
class LeaseTable:
    """In-memory lease table driven entirely by the owner's clock.

    The TCP coordinator's half of the lease protocol: every timestamp
    passed in is the *coordinator's* monotonic clock at the moment a
    worker's message arrived, so staleness never depends on worker
    clocks (which may disagree across machines by more than
    ``stale_after``).  Not thread-safe by itself -- the coordinator
    serialises access under its own lock.
    """

    stale_after: float = DEFAULT_STALE_AFTER
    _leases: Dict[str, Lease] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self._leases)

    def owner(self, task_id: str) -> Optional[str]:
        lease = self._leases.get(task_id)
        return lease.owner if lease is not None else None

    def claim(self, task_id: str, owner: str, now: float) -> bool:
        """Lease ``task_id`` to ``owner``; False if live-leased elsewhere.

        A stale incumbent is displaced; a live one is never touched.
        """
        lease = self._leases.get(task_id)
        if lease is not None and not is_stale(now - lease.last_beat, self.stale_after):
            return False
        self._leases[task_id] = Lease(task_id=task_id, owner=owner, last_beat=now)
        return True

    def heartbeat(self, task_id: str, owner: str, now: float) -> None:
        """Refresh the lease's liveness stamp; :class:`LeaseLost` if lost."""
        lease = self._leases.get(task_id)
        if lease is None or lease.owner != owner:
            raise LeaseLost(f"lease on {task_id} is no longer held by {owner}")
        lease.last_beat = now

    def touch_owner(self, owner: str, now: float) -> None:
        """Refresh every lease ``owner`` holds (any message is a heartbeat)."""
        for lease in self._leases.values():
            if lease.owner == owner:
                lease.last_beat = now

    def release(self, task_id: str, owner: Optional[str] = None) -> bool:
        """Drop the lease; with ``owner``, only if still its holder.

        Returns True iff a lease was removed.  The ownership check keeps
        a dispossessed worker from releasing the new holder's lease.
        """
        lease = self._leases.get(task_id)
        if lease is None:
            return False
        if owner is not None and lease.owner != owner:
            return False
        del self._leases[task_id]
        return True

    def release_owner(self, owner: str) -> List[Lease]:
        """Drop (and return) every lease ``owner`` holds -- a disconnect."""
        dropped = [l for l in self._leases.values() if l.owner == owner]
        for lease in dropped:
            del self._leases[lease.task_id]
        return dropped

    def reclaim_stale(self, now: float) -> List[Lease]:
        """Remove and return every lease whose heartbeat has gone stale."""
        stale = [
            lease
            for lease in self._leases.values()
            if is_stale(now - lease.last_beat, self.stale_after)
        ]
        for lease in stale:
            del self._leases[lease.task_id]
        return stale
