"""Hypercube mathematics (System S2).

The HVDB model is "derived from n-dimensional hypercubes, which have many
desirable properties, such as high fault tolerance, small diameter,
regularity, and symmetry" (paper Section 1).  This package implements the
hypercube machinery the model relies on:

* :mod:`repro.hypercube.labels` -- bit-string node labels, Hamming distance
  and differing dimensions (paper Section 2.1).
* :mod:`repro.hypercube.topology` -- complete and *generalized incomplete*
  hypercubes where "any number of nodes/links may be absent due to ...
  mobility, transmission range, and failure of nodes" (Section 2.1).
* :mod:`repro.hypercube.routing` -- shortest-path (BFS) routing on
  incomplete hypercubes.
* :mod:`repro.hypercube.paths` -- the ``n`` node-disjoint paths between any
  pair of nodes that underpin the high-availability claim.
* :mod:`repro.hypercube.multicast_tree` -- the greedy (shortest-path)
  multicast tree inside a hypercube.
* :mod:`repro.hypercube.mesh` -- the 2-D (possibly incomplete) mesh of the
  Mesh Tier, each node of which is a whole logical hypercube.
"""

from repro.hypercube.labels import (
    hamming_distance,
    differing_dimensions,
    label_to_bits,
    all_labels,
    is_valid_label,
)
from repro.hypercube.topology import Hypercube, IncompleteHypercube
from repro.hypercube.routing import shortest_path, RoutingError
from repro.hypercube.paths import node_disjoint_paths
from repro.hypercube.multicast_tree import MulticastTree, greedy_multicast_tree
from repro.hypercube.mesh import MeshGrid, mesh_multicast_tree

__all__ = [
    "hamming_distance",
    "differing_dimensions",
    "label_to_bits",
    "all_labels",
    "is_valid_label",
    "Hypercube",
    "IncompleteHypercube",
    "shortest_path",
    "RoutingError",
    "node_disjoint_paths",
    "MulticastTree",
    "greedy_multicast_tree",
    "MeshGrid",
    "mesh_multicast_tree",
]
