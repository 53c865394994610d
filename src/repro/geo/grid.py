"""The Virtual Circle (VC) grid of the HVDB model.

Section 3 of the paper divides the geographical area "into equal regions of
circular shape" (following Sivavakeesar et al. [23]).  Each region is a
*Virtual Circle* whose centre is the *Virtual Circle Center* (VCC).  The
VCCs are placed on a square lattice; each circle's radius equals half the
lattice diagonal so that neighbouring circles overlap and every point of
the plane is covered (nodes in overlap regions may belong to more than one
cluster, which the paper exploits "for more reliable communications").

Figure 2 of the paper shows an example 8x8 VC grid; this module is the
executable counterpart of that figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generic, Iterator, List, Tuple, TypeVar

from repro.geo.area import Area
from repro.geo.geometry import Point, distance


#: Integer (column, row) coordinate of a virtual circle in the grid.
GridCoord = Tuple[int, int]

T = TypeVar("T")


class SpatialHash(Generic[T]):
    """Uniform-cell spatial hash for radius-bounded proximity queries.

    Items are binned into square cells of side ``cell``; any two items
    closer than ``cell`` are guaranteed to share a cell or sit in
    adjacent ones, so :meth:`candidates` only has to visit the 3x3 cell
    neighbourhood instead of every item (the classic O(n) -> O(density)
    neighbour query).  Buckets preserve insertion order and
    :meth:`candidates` walks the neighbourhood cells in a fixed order,
    so iteration over candidates is deterministic for a deterministic
    insertion sequence -- simulation results must not depend on hash
    layout.
    """

    def __init__(self, cell: float) -> None:
        self.cell = max(cell, 1e-6)
        self._buckets: Dict[Tuple[int, int], List[T]] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def cell_of(self, point: Point) -> Tuple[int, int]:
        """The cell coordinate binning ``point``."""
        return (int(point.x // self.cell), int(point.y // self.cell))

    def insert(self, item: T, point: Point) -> None:
        self._buckets.setdefault(self.cell_of(point), []).append(item)

    def candidates(self, point: Point) -> List[T]:
        """Every item within one cell of ``point`` (including its own).

        The superset of all items within ``cell`` of ``point``; callers
        apply their exact distance predicate to the survivors.  The
        result is a fresh list joined from the 3x3 buckets, ``dx`` outer
        and ``dy`` inner, each bucket in insertion order.
        """
        cx, cy = self.cell_of(point)
        get = self._buckets.get
        joined: List[T] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = get((cx + dx, cy + dy))
                if bucket is not None:
                    joined += bucket
        return joined


@dataclass(frozen=True, slots=True)
class VirtualCircle:
    """One virtual circle: its grid coordinate, centre (VCC) and radius."""

    coord: GridCoord
    center: Point
    radius: float

    def contains(self, point: Point) -> bool:
        """True if ``point`` lies within the circle (boundary inclusive)."""
        return distance(self.center, point) <= self.radius + 1e-9

    def distance_to_center(self, point: Point) -> float:
        return distance(self.center, point)


class VirtualCircleGrid:
    """A ``cols x rows`` lattice of virtual circles covering an :class:`Area`.

    Parameters
    ----------
    area:
        The rectangular deployment area.
    cols, rows:
        Number of virtual circles along x and y.  The paper's Figure 2 uses
        an 8x8 grid.
    overlap_factor:
        Radius multiplier on top of the minimum fully-covering radius
        (half the cell diagonal).  ``1.0`` gives exact coverage with the
        minimal overlap; larger values enlarge the overlap regions where
        nodes belong to several clusters.
    """

    def __init__(
        self,
        area: Area,
        cols: int,
        rows: int,
        overlap_factor: float = 1.0,
    ) -> None:
        if cols <= 0 or rows <= 0:
            raise ValueError("grid dimensions must be positive")
        if overlap_factor < 1.0:
            raise ValueError("overlap_factor must be >= 1.0 to keep full coverage")
        self.area = area
        self.cols = cols
        self.rows = rows
        self.cell_width = area.width / cols
        self.cell_height = area.height / rows
        self.radius = overlap_factor * 0.5 * math.hypot(self.cell_width, self.cell_height)
        self._circles: Dict[GridCoord, VirtualCircle] = {}
        for col in range(cols):
            for row in range(rows):
                center = Point(
                    (col + 0.5) * self.cell_width,
                    (row + 0.5) * self.cell_height,
                )
                coord = (col, row)
                self._circles[coord] = VirtualCircle(coord, center, self.radius)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.cols * self.rows

    def __iter__(self) -> Iterator[VirtualCircle]:
        return iter(self._circles.values())

    def circle(self, coord: GridCoord) -> VirtualCircle:
        """Return the circle at the given grid coordinate."""
        return self._circles[coord]

    def circles(self) -> List[VirtualCircle]:
        return list(self._circles.values())

    def coord_of(self, point: Point) -> GridCoord:
        """Return the *home* grid coordinate of ``point``.

        The home circle is the one whose square lattice cell contains the
        point; it is the unique circle a node registers with as its primary
        cluster (overlap membership is resolved by
        :meth:`covering_coords`).  Points outside the area are clamped to
        the border cell.
        """
        col = int(point.x // self.cell_width)
        row = int(point.y // self.cell_height)
        col = min(max(col, 0), self.cols - 1)
        row = min(max(row, 0), self.rows - 1)
        return (col, row)

    def home_circle(self, point: Point) -> VirtualCircle:
        """The virtual circle whose lattice cell contains ``point``."""
        return self._circles[self.coord_of(point)]

    def covering_coords(self, point: Point) -> List[GridCoord]:
        """All grid coordinates whose circle covers ``point``.

        Because circles overlap, a node located near a cell boundary is
        covered by two or more circles and may be a member of several
        clusters at once (paper Section 3).  Only the 3x3 neighbourhood of
        the home cell needs to be examined because the circle radius never
        exceeds ``overlap_factor`` cell diagonals.
        """
        home_col, home_row = self.coord_of(point)
        span = max(1, int(math.ceil(self.radius / min(self.cell_width, self.cell_height))))
        coords: List[GridCoord] = []
        for col in range(home_col - span, home_col + span + 1):
            for row in range(home_row - span, home_row + span + 1):
                if 0 <= col < self.cols and 0 <= row < self.rows:
                    if self._circles[(col, row)].contains(point):
                        coords.append((col, row))
        return coords

    def vcc(self, coord: GridCoord) -> Point:
        """The Virtual Circle Center of the circle at ``coord``."""
        return self._circles[coord].center

    def neighbors(self, coord: GridCoord, diagonal: bool = False) -> List[GridCoord]:
        """Grid coordinates adjacent to ``coord``.

        By default only the 4-neighbourhood (N/S/E/W) is returned; with
        ``diagonal=True`` the 8-neighbourhood is returned.
        """
        col, row = coord
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise KeyError(f"coordinate {coord} outside grid")
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        if diagonal:
            offsets += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        out: List[GridCoord] = []
        for dc, dr in offsets:
            nc, nr = col + dc, row + dr
            if 0 <= nc < self.cols and 0 <= nr < self.rows:
                out.append((nc, nr))
        return out

    def manhattan(self, a: GridCoord, b: GridCoord) -> int:
        """Manhattan distance between two grid coordinates."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])
