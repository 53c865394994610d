"""Geometric primitives and the Virtual Circle grid (System S1).

This package provides the geographic substrate the HVDB model is built on:

* :mod:`repro.geo.geometry` -- 2-D points, vectors and distances used by
  every mobility model and by the radio layer.
* :mod:`repro.geo.area` -- the rectangular deployment area with wrap /
  clamp / reflect boundary policies.
* :mod:`repro.geo.grid` -- the Virtual Circle (VC) grid of the paper's
  Section 3 and Figure 2: the plane is partitioned into equal circular
  regions whose centres (VCCs) are laid out on a square lattice.

The positioning the paper assumes every mobile node has (GPS-like) needs
no module of its own: protocols read true positions and velocities from
:meth:`repro.simulation.network.Network.position_of` / ``velocity_of``.
"""

from repro.geo.geometry import Point, Vector, distance
from repro.geo.area import Area, BoundaryPolicy
from repro.geo.grid import VirtualCircleGrid, VirtualCircle, GridCoord

__all__ = [
    "Point",
    "Vector",
    "distance",
    "Area",
    "BoundaryPolicy",
    "VirtualCircleGrid",
    "VirtualCircle",
    "GridCoord",
]
