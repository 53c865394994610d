"""F4-F6 -- Per-operation cost of the paper's three algorithms.

Micro-benchmarks of the executable counterparts of Figures 4, 5 and 6 on a
realistic backbone (a 4-dimensional incomplete hypercube with 75% of its
nodes present):

* F4: one proactive route-maintenance round (beacon integration into the
  local logical route table);
* F5: one summary round (Local-Membership -> MNT-Summary -> HT-Summary ->
  MT-Summary) plus designated-broadcaster selection;
* F6: mesh-tier + hypercube-tier multicast tree computation and packet
  fan-out simulation over the trees.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.membership import (
    BroadcasterCriterion,
    HTSummary,
    LocalMembership,
    MNTSummary,
    MTSummary,
    select_designated_broadcaster,
)
from repro.core.multicast_routing import compute_hypercube_tree, compute_mesh_tree
from repro.core.route_maintenance import LinkQoS, LogicalRouteTable
from repro.hypercube.mesh import MeshGrid
from repro.hypercube.topology import IncompleteHypercube

from common import print_table

DIMENSION = 4
RNG = random.Random(61)


def make_cube() -> IncompleteHypercube:
    labels = list(range(1 << DIMENSION))
    present = RNG.sample(labels, int(0.75 * len(labels)))
    return IncompleteHypercube(DIMENSION, present)


def figure4_round(cube: IncompleteHypercube) -> int:
    """One full proactive-maintenance round over every CH of the cube."""
    tables = {hnid: LogicalRouteTable(hnid, max_logical_hops=4) for hnid in cube.nodes()}
    # 1-logical-hop exchange
    for hnid, table in tables.items():
        for neighbor in cube.neighbors(hnid):
            table.update_neighbor(neighbor, LinkQoS(0.01, 1e6, 0.0))
    # advertisement integration (the "update on beacon receipt" step), twice
    # so k-hop routes build up; each beacon is its sender's (path, delay,
    # bandwidth) triples, as HVDB agents exchange them
    accepted = 0
    for _ in range(2):
        advertisements = {hnid: table.advertisement() for hnid, table in tables.items()}
        for hnid, table in tables.items():
            for neighbor in cube.neighbors(hnid):
                accepted += table.integrate_advertisement(neighbor, advertisements[neighbor], 0.0)
    return accepted


def figure5_round(cube: IncompleteHypercube) -> int:
    """One summary round for 4 groups with 40 reporting members."""
    hnids = sorted(cube.nodes())
    reports = [
        LocalMembership(i, {RNG.randint(1, 4) for _ in range(RNG.randint(0, 2))})
        for i in range(40)
    ]
    per_ch = {hnid: [] for hnid in hnids}
    for i, report in enumerate(reports):
        per_ch[hnids[i % len(hnids)]].append(report)
    summaries = {
        hnid: MNTSummary.from_local_reports(hnid, hnid, 0, per_ch[hnid]) for hnid in hnids
    }
    ht = HTSummary.from_mnt_summaries(0, summaries.values())
    neighbors = {hnid: cube.neighbors(hnid) for hnid in hnids}
    designated = select_designated_broadcaster(
        summaries, BroadcasterCriterion.NEIGHBORHOOD_MEMBERS, neighbors
    )
    mt = MTSummary()
    mt.update_from_ht(ht, (0, 0))
    return designated if designated is not None else -1


def figure6_round(cube: IncompleteHypercube) -> int:
    """Mesh-tier + hypercube-tier tree computation and fan-out walk."""
    mesh = MeshGrid(4, 4)
    mt = MTSummary()
    for coord in [(3, 3), (0, 3), (3, 0), (2, 1)]:
        mt.update_from_ht(HTSummary(0, {1: {0}}), coord)
    mesh_tree = compute_mesh_tree(mesh, (0, 0), mt, group=1)
    members = set(RNG.sample(sorted(cube.node_set()), min(6, len(cube))))
    root = next(iter(cube.nodes()))
    cube_tree = compute_hypercube_tree(cube, root, HTSummary(0, {1: members}), group=1)
    # walk both trees (the forwarding fan-out of Figure 6 steps 3-5)
    forwarded = 0
    stack = [mesh_tree.root]
    while stack:
        node = stack.pop()
        kids = mesh_tree.children_of(node)
        forwarded += len(kids)
        stack.extend(kids)
    stack = [cube_tree.root]
    while stack:
        node = stack.pop()
        kids = cube_tree.children_of(node)
        forwarded += len(kids)
        stack.extend(kids)
    return forwarded


def run_f4_f6() -> List[Dict]:
    cube = make_cube()
    return [
        {"algorithm": "F4 proactive route maintenance", "result": figure4_round(cube)},
        {"algorithm": "F5 summary-based membership update", "result": figure5_round(cube)},
        {"algorithm": "F6 multicast tree computation + fan-out", "result": figure6_round(cube)},
    ]


def test_f4_route_maintenance(benchmark):
    cube = make_cube()
    accepted = benchmark(figure4_round, cube)
    assert accepted > 0


def test_f5_membership_summaries(benchmark):
    cube = make_cube()
    designated = benchmark(figure5_round, cube)
    assert designated >= 0


def test_f6_multicast_trees(benchmark):
    cube = make_cube()
    forwarded = benchmark(figure6_round, cube)
    assert forwarded > 0
    print_table(run_f4_f6(), "F4-F6: one round of each protocol algorithm")


if __name__ == "__main__":
    print_table(run_f4_f6(), "F4-F6: one round of each protocol algorithm")
