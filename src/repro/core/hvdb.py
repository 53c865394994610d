"""The HVDB model: three tiers built on top of a clustering snapshot.

Given the static logical address space (VC grid + hypercube dimension) and
a snapshot of which virtual circles currently have cluster heads, this
module materialises the two backbone tiers of the paper's Figure 1:

* the **Hypercube Tier** -- one (generally incomplete) logical hypercube
  per block region, whose present nodes are exactly the VCs that currently
  have a CH ("A logical hypercube node becomes an actual one only when a
  CH exists in the VC", Section 3);
* the **Mesh Tier** -- the 2-D mesh whose nodes are the blocks that
  currently contain at least one CH ("A mesh node becomes an actual mesh
  node only when a logical hypercube exists in it", Section 3).

It also classifies CHs into Border Cluster Heads (BCHs) and Inner Cluster
Heads (ICHs) (Section 4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.clustering.service import ClusterSnapshot
from repro.core.identifiers import LogicalAddress, LogicalAddressSpace
from repro.geo.geometry import Point, distance
from repro.geo.grid import GridCoord
from repro.hypercube.mesh import MeshGrid
from repro.hypercube.topology import IncompleteHypercube


class ClusterHeadRole(enum.Enum):
    """Role of a node in the HVDB."""

    NOT_CLUSTER_HEAD = "not-ch"
    INNER = "ich"     #: Inner Cluster Head: forwards within its hypercube
    BORDER = "bch"    #: Border Cluster Head: forwards between hypercubes


@dataclass(frozen=True, slots=True)
class HypercubeNodeInfo:
    """One actual hypercube node: its logical address and the CH serving it."""

    address: LogicalAddress
    ch_node_id: int
    role: ClusterHeadRole


class HVDBModel:
    """The logical Hypercube-based Virtual Dynamic Backbone.

    The model is a pure function of ``(address_space, snapshot)``: it holds
    no protocol state of its own and is cheap to rebuild whenever the
    clustering changes.
    """

    def __init__(self, address_space: LogicalAddressSpace, snapshot: ClusterSnapshot) -> None:
        self.space = address_space
        self.snapshot = snapshot
        self._ch_by_vc: Dict[GridCoord, int] = dict(snapshot.heads)
        self._vc_by_ch: Dict[int, GridCoord] = {
            ch: coord for coord, ch in snapshot.heads.items()
        }
        self._hypercubes: Dict[int, IncompleteHypercube] = {}
        self._node_info: Dict[int, HypercubeNodeInfo] = {}
        self._mesh: Optional[MeshGrid] = None
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        space = self.space
        present_by_hid: Dict[int, Set[int]] = {}
        for vc, ch in self._ch_by_vc.items():
            address = space.address_of_vc(vc, chid=ch)
            present_by_hid.setdefault(address.hid, set()).add(address.hnid)
            role = (
                ClusterHeadRole.BORDER
                if space.is_border_vc(vc)
                else ClusterHeadRole.INNER
            )
            self._node_info[ch] = HypercubeNodeInfo(address, ch, role)

        for hid in range(space.hypercube_count()):
            present = present_by_hid.get(hid, set())
            self._hypercubes[hid] = IncompleteHypercube(space.dimension, present)

        present_mesh = [
            space.mesh_of_hid(hid)
            for hid, cube in self._hypercubes.items()
            if len(cube) > 0
        ]
        self._mesh = MeshGrid(space.mesh_cols, space.mesh_rows, present_mesh)

    # ------------------------------------------------------------------
    # cluster-head level queries
    # ------------------------------------------------------------------
    def cluster_heads(self) -> List[int]:
        """Node ids of every cluster head in the backbone."""
        return sorted(self._vc_by_ch.keys())

    def is_cluster_head(self, node_id: int) -> bool:
        return node_id in self._vc_by_ch

    def role_of(self, node_id: int) -> ClusterHeadRole:
        info = self._node_info.get(node_id)
        return info.role if info is not None else ClusterHeadRole.NOT_CLUSTER_HEAD

    def address_of_ch(self, node_id: int) -> LogicalAddress:
        info = self._node_info.get(node_id)
        if info is None:
            raise KeyError(f"node {node_id} is not a cluster head")
        return info.address

    def chid_at(self, hid: int, hnid: int) -> Optional[int]:
        """CH node id serving hypercube node (hid, hnid), or ``None`` if absent."""
        vc = self.space.vc_of(hid, hnid)
        return self._ch_by_vc.get(vc)

    def border_cluster_heads(self, hid: Optional[int] = None) -> List[int]:
        """All BCHs, optionally restricted to one hypercube."""
        out = []
        for node_id, info in self._node_info.items():
            if info.role is not ClusterHeadRole.BORDER:
                continue
            if hid is not None and info.address.hid != hid:
                continue
            out.append(node_id)
        return sorted(out)

    def inner_cluster_heads(self, hid: Optional[int] = None) -> List[int]:
        out = []
        for node_id, info in self._node_info.items():
            if info.role is not ClusterHeadRole.INNER:
                continue
            if hid is not None and info.address.hid != hid:
                continue
            out.append(node_id)
        return sorted(out)

    # ------------------------------------------------------------------
    # hypercube tier
    # ------------------------------------------------------------------
    def hypercube(self, hid: int) -> IncompleteHypercube:
        """The (incomplete) logical hypercube of block ``hid``."""
        return self._hypercubes[hid]

    def actual_hypercube_ids(self) -> List[int]:
        """HIDs of hypercubes that currently contain at least one CH."""
        return sorted(hid for hid, cube in self._hypercubes.items() if len(cube) > 0)

    def chs_in_hypercube(self, hid: int) -> List[int]:
        """Node ids of every CH inside hypercube ``hid``."""
        out = []
        for hnid in self._hypercubes[hid].nodes():
            ch = self.chid_at(hid, hnid)
            if ch is not None:
                out.append(ch)
        return sorted(out)

    def logical_neighbors_of_ch(self, node_id: int) -> List[int]:
        """CHs one logical hop away inside the same hypercube.

        These are exactly the nodes the CH exchanges proactive route
        maintenance beacons with (Figure 4, step 1).
        """
        address = self.address_of_ch(node_id)
        cube = self._hypercubes[address.hid]
        if address.hnid not in cube:
            return []
        out = []
        for neighbor_hnid in cube.neighbors(address.hnid):
            ch = self.chid_at(address.hid, neighbor_hnid)
            if ch is not None:
                out.append(ch)
        return sorted(out)

    # ------------------------------------------------------------------
    # mesh tier
    # ------------------------------------------------------------------
    def mesh(self) -> MeshGrid:
        """The mesh tier over currently-actual hypercubes."""
        assert self._mesh is not None
        return self._mesh

    def entry_ch(self, hid: int, towards: Optional[Point] = None) -> Optional[int]:
        """Pick the CH a packet entering hypercube ``hid`` should be sent to.

        The natural choice is the border CH geographically closest to where
        the packet comes from (``towards``); with no direction given, the
        CH closest to the region centre is used.  Returns ``None`` when the
        hypercube has no CH at all.
        """
        chs = self.chs_in_hypercube(hid)
        if not chs:
            return None
        reference = towards if towards is not None else self.space.region_center(hid)
        # prefer border CHs when any exist (they are the designated
        # inter-hypercube forwarders), otherwise fall back to any CH.
        border = [ch for ch in chs if self.role_of(ch) is ClusterHeadRole.BORDER]
        pool = border if border else chs

        def key(ch: int) -> float:
            vc = self._vc_by_ch[ch]
            return distance(self.space.grid.vcc(vc), reference)

        return min(pool, key=key)

    # ------------------------------------------------------------------
    # diagnostics used by experiments
    # ------------------------------------------------------------------
    def backbone_summary(self) -> Dict[str, float]:
        """Aggregate structural statistics (used by the model-construction bench)."""
        cubes = [cube for cube in self._hypercubes.values() if len(cube) > 0]
        total_nodes = sum(len(cube) for cube in cubes)
        total_possible = (1 << self.space.dimension) * self.space.hypercube_count()
        connected = sum(1 for cube in cubes if cube.is_connected())
        return {
            "cluster_heads": float(len(self._vc_by_ch)),
            "actual_hypercubes": float(len(cubes)),
            "possible_hypercubes": float(self.space.hypercube_count()),
            "hypercube_occupancy": total_nodes / total_possible if total_possible else 0.0,
            "connected_hypercube_fraction": connected / len(cubes) if cubes else 0.0,
            "mesh_nodes": float(len(self._mesh)) if self._mesh is not None else 0.0,
            "border_cluster_heads": float(len(self.border_cluster_heads())),
            "inner_cluster_heads": float(len(self.inner_cluster_heads())),
        }
