"""Summary-based membership update (paper Figure 5).

Membership information is summarised at three tiers:

* **Local-Membership** -- the set of groups one mobile node has joined;
  periodically reported to its CH (steps 1-2).
* **MNT-Summary** -- per CH: for each group, how many of its own cluster
  members (including itself) have joined; periodically sent to every CH in
  the same hypercube (step 3).
* **HT-Summary** -- per hypercube: for each group, which hypercube nodes
  (HNIDs) host members; one *designated* CH broadcasts it network-wide
  (step 4).
* **MT-Summary** -- per CH: for each group, which mesh nodes (logical
  hypercubes) contain members; computed from received HT-Summaries and
  consumed by the multicast routing algorithm (step 5).

The designated-broadcaster choice implements both criteria discussed in
Section 4.2 (largest own membership mass, or largest mass over itself plus
its 1-logical-hop neighbours).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.identifiers import MeshCoord


# ----------------------------------------------------------------------
# Local-Membership (mobile node tier, per node)
# ----------------------------------------------------------------------
@dataclass
class LocalMembership:
    """Groups one mobile node has currently joined."""

    node_id: int
    groups: Set[int] = field(default_factory=set)

    def join(self, group: int) -> None:
        self.groups.add(group)

    def leave(self, group: int) -> None:
        self.groups.discard(group)

    def serialized_size(self) -> int:
        """Bytes needed to report this membership (4 bytes per group id + node id)."""
        return 8 + 4 * len(self.groups)

    def as_payload(self) -> Dict[str, object]:
        return {"node": self.node_id, "groups": sorted(self.groups)}


# ----------------------------------------------------------------------
# MNT-Summary (per cluster head)
# ----------------------------------------------------------------------
@dataclass
class MNTSummary:
    """Per-CH summary: group -> number of local members in this cluster."""

    ch_node_id: int
    hnid: int
    hid: int
    counts: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_local_reports(
        cls,
        ch_node_id: int,
        hnid: int,
        hid: int,
        reports: Iterable[LocalMembership],
    ) -> "MNTSummary":
        """Summarise the Local-Membership reports of the cluster's members."""
        counts: Dict[int, int] = {}
        for report in reports:
            for group in report.groups:
                counts[group] = counts.get(group, 0) + 1
        return cls(ch_node_id=ch_node_id, hnid=hnid, hid=hid, counts=counts)

    def groups(self) -> Set[int]:
        return {g for g, c in self.counts.items() if c > 0}

    def member_total(self) -> int:
        return sum(self.counts.values())

    def serialized_size(self) -> int:
        """Bytes for (group id, count) pairs plus the sender's logical ids."""
        return 12 + 6 * len(self.counts)

    def as_payload(self) -> Dict[str, object]:
        return {
            "ch": self.ch_node_id,
            "hnid": self.hnid,
            "hid": self.hid,
            "counts": dict(sorted(self.counts.items())),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "MNTSummary":
        return cls(
            ch_node_id=int(payload["ch"]),
            hnid=int(payload["hnid"]),
            hid=int(payload["hid"]),
            counts={int(g): int(c) for g, c in dict(payload["counts"]).items()},
        )


# ----------------------------------------------------------------------
# HT-Summary (per hypercube)
# ----------------------------------------------------------------------
@dataclass
class HTSummary:
    """Per-hypercube summary: group -> set of HNIDs that host members."""

    hid: int
    members_by_group: Dict[int, Set[int]] = field(default_factory=dict)

    @classmethod
    def from_mnt_summaries(cls, hid: int, summaries: Iterable[MNTSummary]) -> "HTSummary":
        members: Dict[int, Set[int]] = {}
        for summary in summaries:
            if summary.hid != hid:
                continue
            for group in summary.groups():
                members.setdefault(group, set()).add(summary.hnid)
        return cls(hid=hid, members_by_group=members)

    def groups(self) -> Set[int]:
        return {g for g, hnids in self.members_by_group.items() if hnids}

    def hnids_for(self, group: int) -> Set[int]:
        return set(self.members_by_group.get(group, set()))

    def serialized_size(self) -> int:
        """Bytes: hid + per group (group id + bitmap of HNIDs)."""
        per_group = 4 + 4  # group id + up-to-32-bit HNID bitmap
        return 4 + per_group * len(self.members_by_group)

    def as_payload(self) -> Dict[str, object]:
        return {
            "hid": self.hid,
            "groups": {str(g): sorted(h) for g, h in self.members_by_group.items()},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "HTSummary":
        return cls(
            hid=int(payload["hid"]),
            members_by_group={
                int(g): set(h) for g, h in dict(payload["groups"]).items()
            },
        )


# ----------------------------------------------------------------------
# MT-Summary (network-wide view at hypercube granularity, per CH)
# ----------------------------------------------------------------------
@dataclass
class MTSummary:
    """Per-CH network-wide summary: group -> set of mesh nodes with members."""

    members_by_group: Dict[int, Set[MeshCoord]] = field(default_factory=dict)

    def update_from_ht(self, ht: HTSummary, mesh_coord: MeshCoord) -> None:
        """Fold one hypercube's HT-Summary into the mesh-level view.

        The entry for ``mesh_coord`` is *replaced* (not unioned) for each
        group so that leaves eventually disappear once newer HT-Summaries
        stop listing the group.
        """
        groups_present = ht.groups()
        for group in groups_present:
            self.members_by_group.setdefault(group, set()).add(mesh_coord)
        for group, coords in list(self.members_by_group.items()):
            if group not in groups_present and mesh_coord in coords:
                coords.discard(mesh_coord)
                if not coords:
                    del self.members_by_group[group]

    def mesh_nodes_for(self, group: int) -> Set[MeshCoord]:
        return set(self.members_by_group.get(group, set()))


# ----------------------------------------------------------------------
# Designated broadcaster selection (Section 4.2)
# ----------------------------------------------------------------------
class BroadcasterCriterion(enum.Enum):
    """Which CH of a hypercube broadcasts the HT-Summary network-wide."""

    #: always the same CH (smallest HNID) -- the "simplest way" the paper
    #: mentions and then criticises (single point of failure / bottleneck)
    FIXED = "fixed"
    #: CH whose own MNT-Summary contains the largest number of groups
    MOST_GROUPS = "most-groups"
    #: CH whose own MNT-Summary contains the largest number of group members
    MOST_MEMBERS = "most-members"
    #: CH maximising members over itself + its 1-logical-hop neighbours
    #: (the criterion the paper argues "can work well")
    NEIGHBORHOOD_MEMBERS = "neighborhood-members"


def select_designated_broadcaster(
    summaries: Mapping[int, MNTSummary],
    criterion: BroadcasterCriterion,
    logical_neighbors: Optional[Mapping[int, Iterable[int]]] = None,
) -> Optional[int]:
    """Pick the HNID of the CH that should broadcast the HT-Summary.

    ``summaries`` maps HNID -> MNT-Summary for every CH of one hypercube
    (each CH has the same collection after step 3 of Figure 5, so every CH
    evaluates this function identically and they agree without explicit
    coordination).  ``logical_neighbors`` maps HNID -> iterable of
    neighbouring HNIDs and is required for the neighbourhood criterion.
    Ties are broken towards the smallest HNID so the decision stays
    deterministic everywhere.
    """
    if not summaries:
        return None
    hnids = sorted(summaries.keys())
    if criterion is BroadcasterCriterion.FIXED:
        return hnids[0]
    if criterion is BroadcasterCriterion.MOST_GROUPS:
        return max(hnids, key=lambda h: (len(summaries[h].groups()), -h))
    if criterion is BroadcasterCriterion.MOST_MEMBERS:
        return max(hnids, key=lambda h: (summaries[h].member_total(), -h))
    if criterion is BroadcasterCriterion.NEIGHBORHOOD_MEMBERS:
        if logical_neighbors is None:
            raise ValueError("neighborhood criterion requires logical_neighbors")

        def mass(hnid: int) -> int:
            total = summaries[hnid].member_total()
            for nb in logical_neighbors.get(hnid, []):
                if nb in summaries:
                    total += summaries[nb].member_total()
            return total

        return max(hnids, key=lambda h: (mass(h), -h))
    raise ValueError(f"unknown criterion {criterion!r}")
