"""Logical identifiers and the geographic mapping function (paper Section 4.1).

"We define four kinds of logical identifiers: Cluster Head ID (CHID),
Hypercube Node ID (HNID), Hypercube ID (HID), and Mesh Node ID (MNID).
The relation between CHID and HNID is one-to-one mapping, the relation
between HNID and HID is many-to-one mapping, and the relation between HID
and MNID is one-to-one mapping. ... A simple function is used to map each
CH to a hypercube node, using system parameters such as central
coordinate, length and width of the whole network, diameter of VCs, and
dimension of logical hypercubes."

This module implements exactly that mapping.  The whole network of
``cols x rows`` virtual circles is partitioned into rectangular blocks of
``2**ceil(k/2) x 2**floor(k/2)`` VCs; each block is one logical
k-dimensional hypercube (one mesh node).  Inside a block, the VC at local
offset ``(cx, cy)`` gets hypercube label HNID by interleaving the bits of
``cx`` into the even bit positions and the bits of ``cy`` into the odd bit
positions.  For ``k = 4`` this reproduces the label layout of the paper's
Figure 3 exactly::

    0000 0001 0100 0101
    0010 0011 0110 0111
    1000 1001 1100 1101
    1010 1011 1110 1111
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.geo.geometry import Point
from repro.geo.grid import GridCoord, VirtualCircleGrid

#: Mesh node coordinate (block column, block row).
MeshCoord = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class LogicalAddress:
    """Full logical location of a cluster head / virtual circle."""

    chid: Optional[int]     #: cluster head id (node id); None when the VC has no CH
    hnid: int               #: hypercube node id (label within the hypercube)
    hid: int                #: hypercube id (index of the block)
    mnid: MeshCoord         #: mesh node id (block column, block row)
    vc_coord: GridCoord     #: virtual circle grid coordinate


class LogicalAddressSpace:
    """Maps virtual circles / positions to the logical identifier hierarchy.

    Parameters
    ----------
    grid:
        The virtual circle grid covering the network area.
    dimension:
        Hypercube dimension ``k`` (the paper suggests small values, e.g.
        3-6).  The grid's column count must be divisible by
        ``2**ceil(k/2)`` and the row count by ``2**floor(k/2)`` so the area
        tiles into complete blocks, mirroring the paper's 8x8-VC example
        that splits into four 4-dimensional hypercubes.
    """

    def __init__(self, grid: VirtualCircleGrid, dimension: int) -> None:
        if dimension < 1:
            raise ValueError("hypercube dimension must be at least 1")
        self.grid = grid
        self.dimension = dimension
        self.block_cols = 1 << math.ceil(dimension / 2)   # VCs per block along x
        self.block_rows = 1 << (dimension // 2)            # VCs per block along y
        if grid.cols % self.block_cols != 0 or grid.rows % self.block_rows != 0:
            raise ValueError(
                f"a {grid.cols}x{grid.rows} VC grid cannot be tiled by "
                f"{self.block_cols}x{self.block_rows} hypercube blocks "
                f"(dimension {dimension})"
            )
        self.mesh_cols = grid.cols // self.block_cols
        self.mesh_rows = grid.rows // self.block_rows

    # ------------------------------------------------------------------
    # forward mapping: geography -> logical identifiers
    # ------------------------------------------------------------------
    def mesh_coord_of(self, vc: GridCoord) -> MeshCoord:
        """The mesh node (hypercube block) containing a virtual circle."""
        self._check_vc(vc)
        return (vc[0] // self.block_cols, vc[1] // self.block_rows)

    def hid_of_mesh(self, mesh: MeshCoord) -> int:
        """HID of a mesh node: row-major index of the block."""
        mc, mr = mesh
        if not (0 <= mc < self.mesh_cols and 0 <= mr < self.mesh_rows):
            raise ValueError(f"mesh coordinate {mesh} outside {self.mesh_cols}x{self.mesh_rows} mesh")
        return mr * self.mesh_cols + mc

    def mesh_of_hid(self, hid: int) -> MeshCoord:
        """Inverse of :meth:`hid_of_mesh` (HID <-> MNID is one-to-one)."""
        if not 0 <= hid < self.mesh_cols * self.mesh_rows:
            raise ValueError(f"HID {hid} out of range")
        return (hid % self.mesh_cols, hid // self.mesh_cols)

    def hnid_of(self, vc: GridCoord) -> int:
        """Hypercube node label of a virtual circle within its block.

        Column bits go to even label positions (bit 0, 2, ...), row bits to
        odd positions (bit 1, 3, ...), which reproduces Figure 3.
        """
        self._check_vc(vc)
        local_col = vc[0] % self.block_cols
        local_row = vc[1] % self.block_rows
        label = 0
        col_bits = math.ceil(self.dimension / 2)
        row_bits = self.dimension // 2
        for i in range(col_bits):
            if (local_col >> i) & 1:
                label |= 1 << (2 * i)
        for i in range(row_bits):
            if (local_row >> i) & 1:
                label |= 1 << (2 * i + 1)
        return label

    def vc_of(self, hid: int, hnid: int) -> GridCoord:
        """Inverse mapping: (HID, HNID) -> virtual circle grid coordinate."""
        if not 0 <= hnid < (1 << self.dimension):
            raise ValueError(f"HNID {hnid} out of range for dimension {self.dimension}")
        mesh = self.mesh_of_hid(hid)
        col_bits = math.ceil(self.dimension / 2)
        row_bits = self.dimension // 2
        local_col = 0
        local_row = 0
        for i in range(col_bits):
            if (hnid >> (2 * i)) & 1:
                local_col |= 1 << i
        for i in range(row_bits):
            if (hnid >> (2 * i + 1)) & 1:
                local_row |= 1 << i
        return (mesh[0] * self.block_cols + local_col, mesh[1] * self.block_rows + local_row)

    def address_of_vc(self, vc: GridCoord, chid: Optional[int] = None) -> LogicalAddress:
        """Full logical address of a virtual circle (optionally carrying its CHID)."""
        mesh = self.mesh_coord_of(vc)
        return LogicalAddress(
            chid=chid,
            hnid=self.hnid_of(vc),
            hid=self.hid_of_mesh(mesh),
            mnid=mesh,
            vc_coord=vc,
        )

    # ------------------------------------------------------------------
    # region helpers
    # ------------------------------------------------------------------

    def hypercube_count(self) -> int:
        return self.mesh_cols * self.mesh_rows

    def region_center(self, hid: int) -> Point:
        """Geographic centre of a hypercube block's region."""
        mesh = self.mesh_of_hid(hid)
        width = self.grid.cell_width * self.block_cols
        height = self.grid.cell_height * self.block_rows
        return Point((mesh[0] + 0.5) * width, (mesh[1] + 0.5) * height)

    def is_border_vc(self, vc: GridCoord) -> bool:
        """True if the VC touches the border between two hypercube blocks.

        CHs of border VCs are the Border Cluster Heads (BCHs) that forward
        traffic between adjacent logical hypercubes (Section 4.1).  A VC on
        the outer edge of the whole network is only a border VC on sides
        where another block actually exists.
        """
        self._check_vc(vc)
        local_col = vc[0] % self.block_cols
        local_row = vc[1] % self.block_rows
        mesh = self.mesh_coord_of(vc)
        if local_col == 0 and mesh[0] > 0:
            return True
        if local_col == self.block_cols - 1 and mesh[0] < self.mesh_cols - 1:
            return True
        if local_row == 0 and mesh[1] > 0:
            return True
        if local_row == self.block_rows - 1 and mesh[1] < self.mesh_rows - 1:
            return True
        return False

    def _check_vc(self, vc: GridCoord) -> None:
        col, row = vc
        if not (0 <= col < self.grid.cols and 0 <= row < self.grid.rows):
            raise ValueError(f"virtual circle {vc} outside the {self.grid.cols}x{self.grid.rows} grid")
