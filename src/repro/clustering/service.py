"""Network-wide clustering service.

Maintains one cluster per virtual circle as nodes move: every
``update_interval`` simulated seconds the service re-associates nodes with
their home circles, recomputes each node's predicted residence time and
re-runs the CH election with hysteresis.  The service uses only
information each node locally has under the paper's assumptions (own GPS
position/velocity, the static VC grid geometry), so running it centrally
in the simulator is an accounting convenience, not an information
shortcut; the control cost of CH election beacons is charged separately
through the HVDB agent's cluster beacons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.clustering.cluster import Cluster, ClusterHeadCandidate, elect_cluster_head
from repro.clustering.mobility_prediction import predicted_residence_time
from repro.geo.geometry import distance
from repro.geo.grid import GridCoord, VirtualCircleGrid
from repro.simulation.engine import PeriodicTimer
from repro.simulation.network import Network


@dataclass
class ClusterSnapshot:
    """Immutable view of the clustering state at one instant."""

    time: float
    heads: Dict[GridCoord, int]
    members: Dict[GridCoord, Set[int]]
    node_home: Dict[int, GridCoord]


class ClusteringService:
    """Keeps per-virtual-circle clusters up to date as the network evolves."""

    def __init__(
        self,
        network: Network,
        grid: VirtualCircleGrid,
        update_interval: float = 2.0,
        hysteresis: float = 0.2,
    ) -> None:
        if update_interval <= 0:
            raise ValueError("update_interval must be positive")
        self.network = network
        self.grid = grid
        self.update_interval = update_interval
        self.hysteresis = hysteresis
        self.clusters: Dict[GridCoord, Cluster] = {
            circle.coord: Cluster(circle=circle) for circle in grid
        }
        self._node_home: Dict[int, GridCoord] = {}
        self._timer: Optional[PeriodicTimer] = None
        self.head_changes = 0
        self._listeners: List[Callable[[ClusterSnapshot], None]] = []
        self.update()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start periodic re-clustering on the network's simulator."""
        if self._timer is not None:
            raise RuntimeError("clustering service already started")
        self._timer = PeriodicTimer(
            self.network.simulator,
            self.update_interval,
            self.update,
            initial_delay=self.update_interval,
            priority=-5,
        )

    def add_listener(self, callback: Callable[[ClusterSnapshot], None]) -> None:
        """Register a callback invoked with a snapshot after every update."""
        self._listeners.append(callback)

    # ------------------------------------------------------------------
    # clustering
    # ------------------------------------------------------------------
    def update(self) -> ClusterSnapshot:
        """Re-associate nodes with clusters and re-elect cluster heads."""
        now = self.network.simulator.now
        # reset membership
        for cluster in self.clusters.values():
            cluster.members.clear()
        self._node_home.clear()

        for node_id, node in self.network.nodes.items():
            if not node.alive:
                continue
            position = self.network.position_of(node_id)
            home = self.grid.coord_of(position)
            self._node_home[node_id] = home
            self.clusters[home].members.add(node_id)

        for coord, cluster in self.clusters.items():
            candidates: List[ClusterHeadCandidate] = []
            circle = cluster.circle
            for node_id in cluster.members:
                node = self.network.node(node_id)
                if not node.ch_capable:
                    continue
                position = self.network.position_of(node_id)
                velocity = self.network.velocity_of(node_id)
                residence = predicted_residence_time(
                    position, velocity, circle.center, circle.radius
                )
                candidates.append(
                    ClusterHeadCandidate(
                        node_id=node_id,
                        residence_time=residence,
                        distance_to_vcc=distance(position, circle.center),
                    )
                )
            previous = cluster.head
            # the incumbent must still be a member of this cluster to stand
            incumbent = previous if any(c.node_id == previous for c in candidates) else None
            new_head = elect_cluster_head(candidates, incumbent, self.hysteresis)
            # only count genuine hand-overs / losses, not the first election
            # of a previously head-less cluster
            if previous is not None and new_head != previous:
                self.head_changes += 1
            cluster.head = new_head

        snapshot = self.snapshot(now)
        for listener in self._listeners:
            listener(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def snapshot(self, time: Optional[float] = None) -> ClusterSnapshot:
        return ClusterSnapshot(
            time=self.network.simulator.now if time is None else time,
            heads={
                coord: cluster.head
                for coord, cluster in self.clusters.items()
                if cluster.head is not None
            },
            members={
                coord: set(cluster.members)
                for coord, cluster in self.clusters.items()
                if cluster.members
            },
            node_home=dict(self._node_home),
        )

    def head_of_node(self, node_id: int) -> Optional[int]:
        """The CH of the cluster the node currently belongs to."""
        coord = self._node_home.get(node_id)
        if coord is None:
            return None
        return self.clusters[coord].head

    def serving_head(self, node_id: int) -> Optional[int]:
        """A CH able to serve the node: its home CH, or the CH of any
        overlapping virtual circle when the home circle has none.

        The paper exploits exactly this overlap: "an MN within the
        overlapped regions can be a cluster member of two or multiple
        clusters at the same time for more reliable communications"
        (Section 3).
        """
        head = self.head_of_node(node_id)
        if head is not None:
            return head
        position = self.network.position_of(node_id)
        best: Optional[int] = None
        best_distance = float("inf")
        for coord in self.grid.covering_coords(position):
            candidate = self.clusters[coord].head
            if candidate is None:
                continue
            d = self.grid.vcc(coord).distance_to(position)
            if d < best_distance:
                best_distance = d
                best = candidate
        return best
