"""Unit tests for repro.geo.area."""

import random

import pytest

from repro.geo.area import Area, BoundaryPolicy
from repro.geo.geometry import Point, Vector
from repro.geo.grid import VirtualCircleGrid


class TestAreaBasics:
    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Area(0.0, 100.0)
        with pytest.raises(ValueError):
            Area(100.0, -5.0)

    def test_center_and_diagonal(self):
        # a one-circle grid's circle is centred on the area and spans its diagonal
        circle = next(iter(VirtualCircleGrid(Area(300.0, 400.0), 1, 1)))
        assert circle.center == Point(150.0, 200.0)
        assert 2 * circle.radius == pytest.approx(500.0)

    def test_contains(self):
        area = Area(100.0, 100.0)
        assert area.contains(Point(0.0, 0.0))
        assert area.contains(Point(100.0, 100.0))
        assert not area.contains(Point(100.1, 50.0))
        assert not area.contains(Point(-0.1, 50.0))

    def test_random_point_inside(self):
        area = Area(50.0, 80.0)
        rng = random.Random(42)
        for _ in range(100):
            assert area.contains(area.random_point(rng))


class TestBoundaryPolicies:
    def setup_method(self):
        self.area = Area(100.0, 100.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            self.area.apply_boundary(Point(150.0, 50.0), Vector(1.0, 0.0), "reflect")

    def test_point_inside_unchanged(self):
        p, v = self.area.apply_boundary(Point(50.0, 50.0), Vector(1.0, 1.0), BoundaryPolicy.REFLECT)
        assert p == Point(50.0, 50.0)
        assert v == Vector(1.0, 1.0)

    def test_clamp(self):
        p, v = self.area.apply_boundary(Point(120.0, -10.0), Vector(1.0, -1.0), BoundaryPolicy.CLAMP)
        assert p == Point(100.0, 0.0)
        assert v == Vector(1.0, -1.0)

    def test_wrap(self):
        p, _ = self.area.apply_boundary(Point(120.0, -10.0), Vector(0.0, 0.0), BoundaryPolicy.WRAP)
        assert p.x == pytest.approx(20.0)
        assert p.y == pytest.approx(90.0)

    def test_reflect_simple_overshoot(self):
        p, v = self.area.apply_boundary(Point(110.0, 50.0), Vector(2.0, 0.0), BoundaryPolicy.REFLECT)
        assert p.x == pytest.approx(90.0)
        assert v.dx == pytest.approx(-2.0)
        assert v.dy == pytest.approx(0.0)

    def test_reflect_negative_overshoot(self):
        p, v = self.area.apply_boundary(Point(-30.0, 50.0), Vector(-1.0, 3.0), BoundaryPolicy.REFLECT)
        assert p.x == pytest.approx(30.0)
        assert v.dx == pytest.approx(1.0)
        assert v.dy == pytest.approx(3.0)

    def test_reflect_large_overshoot_stays_inside(self):
        p, _ = self.area.apply_boundary(Point(350.0, -260.0), Vector(5.0, -5.0), BoundaryPolicy.REFLECT)
        assert self.area.contains(p)

    def test_reflect_both_axes(self):
        p, v = self.area.apply_boundary(Point(105.0, 108.0), Vector(1.0, 2.0), BoundaryPolicy.REFLECT)
        assert p == Point(95.0, 92.0)
        assert v == Vector(-1.0, -2.0)
