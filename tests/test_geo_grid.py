"""Unit tests for the Virtual Circle grid (paper Figure 2)."""

import math

import pytest

from repro.geo.area import Area
from repro.geo.geometry import Point
from repro.geo.grid import VirtualCircleGrid


class TestGridConstruction:
    def test_figure2_grid_has_64_circles(self, small_area):
        grid = VirtualCircleGrid(small_area, 8, 8)
        assert len(grid) == 64
        assert len(list(grid)) == 64

    def test_invalid_dimensions(self, small_area):
        with pytest.raises(ValueError):
            VirtualCircleGrid(small_area, 0, 8)
        with pytest.raises(ValueError):
            VirtualCircleGrid(small_area, 8, -1)

    def test_invalid_overlap(self, small_area):
        with pytest.raises(ValueError):
            VirtualCircleGrid(small_area, 8, 8, overlap_factor=0.9)

    def test_radius_covers_cell(self, small_area):
        grid = VirtualCircleGrid(small_area, 8, 8)
        # radius is half the cell diagonal -> corners of the cell are covered
        assert grid.radius == pytest.approx(0.5 * math.hypot(125.0, 125.0))

    def test_vcc_positions(self, small_area):
        grid = VirtualCircleGrid(small_area, 4, 4)
        assert grid.vcc((0, 0)) == Point(125.0, 125.0)
        assert grid.vcc((3, 3)) == Point(875.0, 875.0)


class TestLookup:
    def test_coord_of_home_cell(self, grid_8x8):
        assert grid_8x8.coord_of(Point(10.0, 10.0)) == (0, 0)
        assert grid_8x8.coord_of(Point(999.0, 999.0)) == (7, 7)
        assert grid_8x8.coord_of(Point(130.0, 260.0)) == (1, 2)

    def test_coord_of_clamps_outside_points(self, grid_8x8):
        assert grid_8x8.coord_of(Point(-50.0, 2000.0)) == (0, 7)

    def test_home_circle_contains_point(self, grid_8x8):
        p = Point(312.0, 440.0)
        assert grid_8x8.coord_of(p) in grid_8x8.covering_coords(p)

    def test_every_point_covered_by_home_circle(self, grid_8x8):
        # sample a lattice of points; full coverage is the invariant that
        # lets every MN determine "the circle where it resides"
        for ix in range(0, 1001, 125):
            for iy in range(0, 1001, 125):
                p = Point(float(min(ix, 1000)), float(min(iy, 1000)))
                assert grid_8x8.coord_of(p) in grid_8x8.covering_coords(p)

    def test_covering_coords_includes_home(self, grid_8x8):
        p = Point(437.0, 562.0)
        covering = grid_8x8.covering_coords(p)
        assert grid_8x8.coord_of(p) in covering

    def test_overlap_region_has_multiple_covering_circles(self, grid_8x8):
        # a point on a cell boundary lies in the overlap of several circles
        boundary_point = Point(125.0, 125.0)
        assert len(grid_8x8.covering_coords(boundary_point)) >= 2

    def test_circle_center_far_point_not_contained(self, grid_8x8):
        circle = next(c for c in grid_8x8 if c.coord == (0, 0))
        assert not circle.contains(Point(900.0, 900.0))


def neighbors(grid, coord, diagonal=False):
    """The VCs sharing a side (with ``diagonal``, a corner) with ``coord``:
    the other circles covering the midpoints of its sides (its corners)."""
    x0, y0 = coord[0] * grid.cell_width, coord[1] * grid.cell_height
    w, h = grid.cell_width, grid.cell_height
    if diagonal:
        points = [Point(x0 + i * w, y0 + j * h) for i in (0, 1) for j in (0, 1)]
    else:
        points = [
            Point(x0 + w / 2, y0), Point(x0 + w / 2, y0 + h),
            Point(x0, y0 + h / 2), Point(x0 + w, y0 + h / 2),
        ]
    return sorted({c for p in points for c in grid.covering_coords(p)} - {coord})


class TestNeighbors:
    """The grid keeps no adjacency table: neighbouring circles are the ones
    whose overlaps cover the points a VC shares with them."""

    def test_interior_four_neighbors(self, grid_8x8):
        assert neighbors(grid_8x8, (3, 3)) == [(2, 3), (3, 2), (3, 4), (4, 3)]

    def test_corner_two_neighbors(self, grid_8x8):
        assert neighbors(grid_8x8, (0, 0)) == [(0, 1), (1, 0)]

    def test_diagonal_neighbors(self, grid_8x8):
        assert len(neighbors(grid_8x8, (3, 3), diagonal=True)) == 8
        assert len(neighbors(grid_8x8, (0, 0), diagonal=True)) == 3

    def test_neighbors_outside_raises(self, grid_8x8):
        with pytest.raises(KeyError):
            grid_8x8.vcc((8, 0))

    def test_manhattan(self, grid_8x8):
        # VC centres sit one cell apart, so centre offsets count cells
        def manhattan(a, b):
            pa, pb = grid_8x8.vcc(a), grid_8x8.vcc(b)
            return abs(pa.x - pb.x) / grid_8x8.cell_width + abs(pa.y - pb.y) / grid_8x8.cell_height

        assert manhattan((0, 0), (3, 4)) == 7
        assert manhattan((5, 5), (5, 5)) == 0


class TestSpatialHash:
    def test_candidates_cover_everything_within_cell_radius(self):
        import random

        from repro.geo.geometry import distance
        from repro.geo.grid import SpatialHash

        rng = random.Random(7)
        points = {i: Point(rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(200)}
        index = SpatialHash(12.0)
        for i, p in points.items():
            index.insert(i, p)
        assert len(index) == 200
        for i, p in points.items():
            candidates = set(index.candidates(p))
            assert i in candidates  # own cell is probed
            for j, q in points.items():
                if distance(p, q) < 12.0:
                    assert j in candidates

    def test_candidate_order_is_deterministic(self):
        from repro.geo.grid import SpatialHash

        def build():
            index = SpatialHash(10.0)
            for i, p in enumerate(
                [Point(1, 1), Point(2, 2), Point(15, 1), Point(3, 3)]
            ):
                index.insert(i, p)
            return list(index.candidates(Point(2, 2)))

        first = build()
        assert first == build()
        # bucket contents come back in insertion order
        assert [i for i in first if i in (0, 1, 3)] == [0, 1, 3]

    def test_zero_cell_size_is_floored(self):
        from repro.geo.grid import SpatialHash

        index = SpatialHash(0.0)
        index.insert("a", Point(0.5, 0.5))
        assert index.cell > 0
        assert list(index.candidates(Point(0.5, 0.5))) == ["a"]

    def test_negative_coordinates_bin_correctly(self):
        from repro.geo.grid import SpatialHash

        index = SpatialHash(10.0)
        index.insert("neg", Point(-5.0, -5.0))
        index.insert("origin", Point(1.0, 1.0))
        assert set(index.candidates(Point(-1.0, -1.0))) == {"neg", "origin"}

    @staticmethod
    def layout_3x3():
        """Two items in every cell of the 3x3 block around cell (1, 1),
        inserted in a scrambled order, plus two items outside the block."""
        from repro.geo.grid import SpatialHash

        index = SpatialHash(10.0)
        cells = [(2, 0), (0, 1), (1, 1), (0, 0), (2, 2), (1, 0), (0, 2), (1, 2), (2, 1)]
        for rank in ("a", "b"):
            for col, row in cells:
                index.insert(f"{col}{row}{rank}", Point(col * 10.0 + 5.0, row * 10.0 + 5.0))
        index.insert("far-x", Point(35.0, 15.0))
        index.insert("far-y", Point(15.0, -5.0))
        return index

    def test_candidates_follow_the_walk_order(self):
        # dx outer, dy inner; within a cell, insertion order
        assert self.layout_3x3().candidates(Point(15.0, 15.0)) == [
            "00a", "00b", "01a", "01b", "02a", "02b",
            "10a", "10b", "11a", "11b", "12a", "12b",
            "20a", "20b", "21a", "21b", "22a", "22b",
        ]

    def test_candidates_are_a_fresh_list(self):
        index = self.layout_3x3()
        first = index.candidates(Point(15.0, 15.0))
        expected = list(first)
        first.append("intruder")
        first.remove("11a")
        assert index.candidates(Point(15.0, 15.0)) == expected
        assert index.candidates(Point(15.0, 15.0)) is not index.candidates(Point(15.0, 15.0))
        assert len(index) == 20
        # a lone bucket is copied too
        lone = self.layout_3x3()
        far = lone.candidates(Point(45.0, 15.0))
        assert far == ["far-x"]
        far.clear()
        assert lone.candidates(Point(45.0, 15.0)) == ["far-x"]

    def test_candidates_carry_tuple_items_as_given(self):
        from repro.geo.grid import SpatialHash

        index = SpatialHash(10.0)
        entries = [(7, Point(1.0, 1.0)), (3, Point(12.0, 1.0)), (5, Point(2.0, 3.0))]
        for entry in entries:
            index.insert(entry, entry[1])
        expected = [entries[0], entries[2], entries[1]]
        got = index.candidates(Point(1.0, 1.0))
        assert got == expected
        assert all(a is b for a, b in zip(got, expected))
