"""Unit tests for repro.geo.geometry."""

import math

import pytest

from repro.geo.geometry import (
    Point,
    Vector,
    distance,
    heading_to_vector,
)


class TestPoint:
    def test_translate(self):
        assert Point(1.0, 2.0).translate(Vector(3.0, -1.0)) == Point(4.0, 1.0)

    def test_vector_to(self):
        v = Point(1.0, 1.0).vector_to(Point(4.0, 5.0))
        assert (v.dx, v.dy) == (3.0, 4.0)

    def test_distance_to(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_iter_and_tuple(self):
        p = Point(2.5, -1.5)
        assert tuple(p) == (2.5, -1.5)
        assert p.as_tuple() == (2.5, -1.5)

    def test_immutability(self):
        p = Point(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 5.0  # type: ignore[misc]


class TestVector:
    def test_magnitude(self):
        assert Vector(3.0, 4.0).magnitude == pytest.approx(5.0)

    def test_heading(self):
        assert Vector(0.0, 1.0).heading == pytest.approx(math.pi / 2)
        assert Vector(-1.0, 0.0).heading == pytest.approx(math.pi)

    def test_scaled(self):
        v = Vector(1.0, -2.0).scaled(3.0)
        assert (v.dx, v.dy) == (3.0, -6.0)

    def test_normalized(self):
        v = Vector(3.0, 4.0).normalized()
        assert v.magnitude == pytest.approx(1.0)
        assert v.dx == pytest.approx(0.6)

    def test_normalized_zero_vector(self):
        v = Vector(0.0, 0.0).normalized()
        assert (v.dx, v.dy) == (0.0, 0.0)

    def test_addition_subtraction_negation(self):
        a, b = Vector(1.0, 2.0), Vector(3.0, -1.0)
        assert a + b == Vector(4.0, 1.0)
        assert a - b == Vector(-2.0, 3.0)
        assert -a == Vector(-1.0, -2.0)

    def test_dot(self):
        assert Vector(1.0, 2.0).dot(Vector(3.0, 4.0)) == pytest.approx(11.0)


class TestFunctions:
    def test_distance(self):
        assert distance(Point(1.0, 2.0), Point(4.0, 6.0)) == 5.0

    def test_heading_to_vector(self):
        v = heading_to_vector(0.0, 2.0)
        assert v.dx == pytest.approx(2.0)
        assert v.dy == pytest.approx(0.0)
        v = heading_to_vector(math.pi / 2, 3.0)
        assert v.dx == pytest.approx(0.0, abs=1e-12)
        assert v.dy == pytest.approx(3.0)
