"""Unit tests for mobility prediction and the clustering layer."""

import pytest

from repro.clustering.cluster import Cluster, ClusterHeadCandidate, elect_cluster_head
from repro.clustering.mobility_prediction import (
    STATIONARY_RESIDENCE_TIME,
    predicted_residence_time,
)
from repro.clustering.service import ClusteringService
from repro.geo.area import Area
from repro.geo.geometry import Point, Vector
from repro.geo.grid import VirtualCircleGrid
from repro.mobility.static import StaticMobility
from repro.simulation.mac import IdealMac
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.node import MobileNode
from repro.simulation.radio import UnitDiskRadio


CENTER = Point(100.0, 100.0)
RADIUS = 50.0


class TestResidenceTimePrediction:
    def test_stationary_inside(self):
        t = predicted_residence_time(Point(100.0, 100.0), Vector(0.0, 0.0), CENTER, RADIUS)
        assert t == STATIONARY_RESIDENCE_TIME

    def test_stationary_outside(self):
        t = predicted_residence_time(Point(200.0, 100.0), Vector(0.0, 0.0), CENTER, RADIUS)
        assert t == 0.0

    def test_moving_from_center(self):
        # from the centre at 10 m/s it takes radius/speed = 5 s to exit
        t = predicted_residence_time(CENTER, Vector(10.0, 0.0), CENTER, RADIUS)
        assert t == pytest.approx(5.0)

    def test_moving_from_edge_inward(self):
        # entering at the west edge moving east: crosses the full diameter
        t = predicted_residence_time(Point(50.0, 100.0), Vector(10.0, 0.0), CENTER, RADIUS)
        assert t == pytest.approx(10.0)

    def test_moving_from_edge_outward(self):
        t = predicted_residence_time(Point(150.0, 100.0), Vector(10.0, 0.0), CENTER, RADIUS)
        assert t == pytest.approx(0.0)

    def test_outside_heading_through_circle(self):
        # starts outside, will cross the circle: residence equals the chord time
        t = predicted_residence_time(Point(0.0, 100.0), Vector(10.0, 0.0), CENTER, RADIUS)
        assert t == pytest.approx(10.0)

    def test_outside_heading_away(self):
        t = predicted_residence_time(Point(200.0, 100.0), Vector(10.0, 0.0), CENTER, RADIUS)
        assert t == 0.0

    def test_faster_node_exits_sooner(self):
        slow = predicted_residence_time(CENTER, Vector(1.0, 0.0), CENTER, RADIUS)
        fast = predicted_residence_time(CENTER, Vector(20.0, 0.0), CENTER, RADIUS)
        assert fast < slow

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            predicted_residence_time(CENTER, Vector(1.0, 0.0), CENTER, 0.0)

    def test_residence_probability_ordering_preserved(self):
        # criterion (1), "the highest probability to stay", ranks by residence time
        slow = predicted_residence_time(CENTER, Vector(1.0, 0.0), CENTER, RADIUS)
        fast = predicted_residence_time(CENTER, Vector(20.0, 0.0), CENTER, RADIUS)
        winner = elect_cluster_head(
            [
                ClusterHeadCandidate(1, residence_time=fast, distance_to_vcc=0.0),
                ClusterHeadCandidate(2, residence_time=slow, distance_to_vcc=0.0),
            ]
        )
        assert winner == 2

    def test_residence_probability_invalid_horizon(self):
        with pytest.raises(ValueError):
            predicted_residence_time(CENTER, Vector(1.0, 0.0), CENTER, -RADIUS)


class TestElection:
    def test_longest_residence_wins(self):
        winner = elect_cluster_head(
            [
                ClusterHeadCandidate(1, residence_time=10.0, distance_to_vcc=5.0),
                ClusterHeadCandidate(2, residence_time=40.0, distance_to_vcc=30.0),
            ]
        )
        assert winner == 2

    def test_distance_breaks_ties(self):
        winner = elect_cluster_head(
            [
                ClusterHeadCandidate(1, residence_time=10.0, distance_to_vcc=25.0),
                ClusterHeadCandidate(2, residence_time=10.0, distance_to_vcc=5.0),
            ]
        )
        assert winner == 2

    def test_node_id_final_tiebreak(self):
        winner = elect_cluster_head(
            [
                ClusterHeadCandidate(9, residence_time=10.0, distance_to_vcc=5.0),
                ClusterHeadCandidate(2, residence_time=10.0, distance_to_vcc=5.0),
            ]
        )
        assert winner == 2

    def test_no_candidates(self):
        assert elect_cluster_head([]) is None

    def test_hysteresis_keeps_incumbent(self):
        candidates = [
            ClusterHeadCandidate(1, residence_time=10.0, distance_to_vcc=5.0),
            ClusterHeadCandidate(2, residence_time=11.0, distance_to_vcc=3.0),
        ]
        # challenger is better but not by more than 50%
        assert elect_cluster_head(candidates, current_head=1, hysteresis=0.5) == 1
        # without hysteresis the challenger takes over
        assert elect_cluster_head(candidates, current_head=1, hysteresis=0.0) == 2

    def test_hysteresis_overcome_by_much_better_challenger(self):
        candidates = [
            ClusterHeadCandidate(1, residence_time=10.0, distance_to_vcc=5.0),
            ClusterHeadCandidate(2, residence_time=30.0, distance_to_vcc=3.0),
        ]
        assert elect_cluster_head(candidates, current_head=1, hysteresis=0.5) == 2

    def test_departed_incumbent_replaced(self):
        candidates = [ClusterHeadCandidate(3, residence_time=5.0, distance_to_vcc=10.0)]
        assert elect_cluster_head(candidates, current_head=99, hysteresis=0.5) == 3

    def test_invalid_hysteresis(self):
        with pytest.raises(ValueError):
            elect_cluster_head(
                [ClusterHeadCandidate(1, 1.0, 1.0)], current_head=None, hysteresis=1.0
            )


    def test_cluster_dataclass(self):
        grid = VirtualCircleGrid(Area(100.0, 100.0), 2, 2)
        circle = next(c for c in grid if c.coord == (0, 0))
        cluster = Cluster(circle=circle, head=4, members={4, 5})
        assert cluster.circle.coord == (0, 0)
        assert cluster.head == 4
        assert cluster.members == {4, 5}
        empty = Cluster(circle=circle)
        assert empty.head is None and empty.members == set()


def build_service(positions, ch_capable=None, hysteresis=0.2):
    area = Area(1000.0, 1000.0)
    node_ids = sorted(positions)
    mobility = StaticMobility(area, node_ids, positions=positions, seed=1)
    network = Network(
        NetworkConfig(area=area, radio=UnitDiskRadio(250.0), mac=IdealMac(), seed=1), mobility
    )
    for node_id in node_ids:
        capable = True if ch_capable is None else node_id in ch_capable
        network.add_node(MobileNode(node_id, ch_capable=capable))
    grid = VirtualCircleGrid(area, 4, 4)
    service = ClusteringService(network, grid, update_interval=1.0, hysteresis=hysteresis)
    return network, grid, service


class TestClusteringService:
    def test_each_occupied_vc_gets_a_head(self):
        positions = {
            0: Point(100.0, 100.0),   # VC (0,0)
            1: Point(120.0, 130.0),   # VC (0,0)
            2: Point(600.0, 600.0),   # VC (2,2)
        }
        _, _, service = build_service(positions)
        heads = service.snapshot().heads
        assert set(heads.keys()) == {(0, 0), (2, 2)}
        assert heads[(2, 2)] == 2
        assert heads[(0, 0)] in (0, 1)

    def test_ch_incapable_nodes_never_elected(self):
        positions = {0: Point(100.0, 100.0), 1: Point(120.0, 130.0)}
        _, _, service = build_service(positions, ch_capable={1})
        assert service.snapshot().heads == {(0, 0): 1}
        assert service.head_of_node(0) == 1
        assert service.head_of_node(1) == 1

    def test_empty_vc_has_no_head(self):
        positions = {0: Point(100.0, 100.0)}
        _, _, service = build_service(positions)
        assert service.clusters[(3, 3)].head is None

    def test_cluster_of_and_head_of_node(self):
        positions = {0: Point(100.0, 100.0), 1: Point(130.0, 100.0)}
        _, _, service = build_service(positions)
        assert service.snapshot().node_home[0] == (0, 0)
        assert service.head_of_node(0) == service.head_of_node(1)

    def test_members_of(self):
        positions = {0: Point(100.0, 100.0), 1: Point(130.0, 100.0), 2: Point(900.0, 900.0)}
        _, _, service = build_service(positions)
        members = service.snapshot().members
        assert members[(0, 0)] == {0, 1}
        assert members[(3, 3)] == {2}

    def test_failed_node_excluded(self):
        positions = {0: Point(100.0, 100.0), 1: Point(130.0, 100.0)}
        network, _, service = build_service(positions)
        head = service.head_of_node(0)
        network.nodes[head].fail()
        service.update()
        new_head = service.clusters[(0, 0)].head
        assert new_head is not None and new_head != head

    def test_snapshot_contents(self):
        positions = {0: Point(100.0, 100.0), 2: Point(600.0, 600.0)}
        _, _, service = build_service(positions)
        snap = service.snapshot()
        assert snap.heads == {(0, 0): 0, (2, 2): 2}
        assert snap.node_home == {0: (0, 0), 2: (2, 2)}

    def test_serving_head_uses_overlap(self):
        # node 1 sits alone (not CH-capable) in VC (1,0); the CH of VC (0,0)
        # covers it through the circle overlap
        positions = {0: Point(240.0, 120.0), 1: Point(260.0, 120.0)}
        _, _, service = build_service(positions, ch_capable={0})
        assert service.head_of_node(1) is None
        assert service.serving_head(1) == 0

    def test_listener_and_periodic_updates(self):
        positions = {0: Point(100.0, 100.0)}
        network, _, service = build_service(positions)
        snapshots = []
        service.add_listener(lambda snap: snapshots.append(snap))
        service.start()
        network.simulator.run(5.0)
        assert len(snapshots) == 5
        assert [snap.time for snap in snapshots] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_start_twice_raises(self):
        positions = {0: Point(100.0, 100.0)}
        _, _, service = build_service(positions)
        service.start()
        with pytest.raises(RuntimeError):
            service.start()

    def test_invalid_update_interval(self):
        positions = {0: Point(100.0, 100.0)}
        network, grid, _ = build_service(positions)
        with pytest.raises(ValueError):
            ClusteringService(network, grid, update_interval=0.0)

    def test_stable_election_is_deterministic(self):
        positions = {0: Point(100.0, 100.0), 1: Point(140.0, 100.0)}
        _, _, service = build_service(positions)
        first = service.clusters[(0, 0)].head
        for _ in range(5):
            service.update()
        assert service.clusters[(0, 0)].head == first
        assert service.head_changes == 0
