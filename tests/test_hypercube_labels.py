"""Unit tests for hypercube label algebra (paper Section 2.1).

Bit flips, label weights, subcubes and Gray codes have no functions of
their own in :mod:`repro.hypercube`: a node's neighbour along a dimension
comes from :class:`IncompleteHypercube`, a weight is a Hamming distance
from node 0, and the subcube and Gray-code oracles in ``tests/conftest.py``
are built on the live label functions and checked against the live cube.
"""

import pytest

from repro.hypercube.labels import (
    all_labels,
    differing_dimensions,
    hamming_distance,
    is_valid_label,
    label_to_bits,
)
from repro.hypercube.routing import shortest_path
from repro.hypercube.topology import IncompleteHypercube
from tests.conftest import canonical_subcube, gray_code, path_is_valid, subcube_members


class TestHamming:
    def test_identity(self):
        assert hamming_distance(5, 5) == 0

    def test_single_bit(self):
        assert hamming_distance(0b1000, 0b1001) == 1

    def test_paper_example(self):
        # 1000 -> 1101 differ in two bits (the 2-logical-hop example of Section 4.1)
        assert hamming_distance(int("1000", 2), int("1101", 2)) == 2

    def test_symmetry(self):
        assert hamming_distance(3, 12) == hamming_distance(12, 3)

    def test_differing_dimensions(self):
        assert differing_dimensions(0b0000, 0b1010) == [1, 3]
        assert differing_dimensions(7, 7) == []


class TestLabels:
    def test_is_valid_label(self):
        assert is_valid_label(0, 3)
        assert is_valid_label(7, 3)
        assert not is_valid_label(8, 3)
        assert not is_valid_label(-1, 3)

    def test_flip_bit(self):
        # a node's neighbour along dimension d is its label with bit d flipped
        cube = IncompleteHypercube(4)
        assert cube.neighbors(0b0000)[2] == 0b0100
        assert cube.neighbors(0b0100)[2] == 0b0000
        assert differing_dimensions(0b0000, 0b0100) == [2]

    def test_flip_bit_negative_dimension(self):
        with pytest.raises(ValueError):
            all_labels(-1)
        with pytest.raises(ValueError):
            IncompleteHypercube(-1)

    def test_neighbors_count_and_distance(self):
        nbs = IncompleteHypercube(4).neighbors(0b1010)
        assert len(nbs) == 4
        assert all(hamming_distance(0b1010, nb) == 1 for nb in nbs)

    def test_neighbors_out_of_range(self):
        with pytest.raises(KeyError):
            IncompleteHypercube(4).neighbors(16)

    def test_all_labels(self):
        assert list(all_labels(3)) == list(range(8))
        assert len(list(all_labels(0))) == 1

    def test_label_bits_roundtrip(self):
        for label in all_labels(5):
            assert int(label_to_bits(label, 5), 2) == label

    def test_label_to_bits_matches_paper_notation(self):
        assert label_to_bits(8, 4) == "1000"
        assert label_to_bits(13, 4) == "1101"

    def test_bits_to_label_invalid(self):
        # only labels of the cube have a bit string
        with pytest.raises(ValueError):
            label_to_bits(16, 4)
        with pytest.raises(ValueError):
            label_to_bits(-1, 4)

    def test_weight(self):
        # a label's weight is its Hamming distance from node 0
        assert hamming_distance(0, 0) == 0
        assert hamming_distance(0b1011, 0) == 3


def induced_cube(pattern):
    """The live cube holding exactly the nodes of the subcube ``pattern``."""
    return IncompleteHypercube(len(pattern), present_nodes=subcube_members(pattern))


class TestSubcubes:
    """A subcube fixes some bits and frees the rest; it is a cube of its own."""

    def test_full_wildcard_is_whole_cube(self):
        assert subcube_members("**") == [0, 1, 2, 3]
        assert subcube_members("**") == list(IncompleteHypercube(2).nodes())

    def test_fixed_pattern_single_member(self):
        assert subcube_members("101") == [5]
        assert induced_cube("101").diameter() == 0

    def test_mixed_pattern(self):
        # "1**0": bit3=1, bit0=0, bits 1-2 free -> {8, 10, 12, 14}
        assert subcube_members("1**0") == [8, 10, 12, 14]
        # a 2-subcube of the 4-cube is a 2-cube: connected, diameter 2
        cube = induced_cube("1**0")
        assert cube.is_connected()
        assert cube.diameter() == 2
        assert all(len(cube.neighbors(label)) == 2 for label in cube.nodes())

    def test_symmetry_property_split(self):
        # a (k+1)-dimensional subcube consists of two k-dimensional subcubes
        parent = set(subcube_members("*1*"))
        half0 = set(subcube_members("01*"))
        half1 = set(subcube_members("11*"))
        assert parent == half0 | half1
        assert not half0 & half1
        # joined by one link per node, across the split dimension
        cube = induced_cube("*1*")
        for label in half0:
            assert [nb for nb in cube.neighbors(label) if nb in half1] == [label ^ 0b100]

    def test_invalid_pattern(self):
        with pytest.raises(ValueError):
            subcube_members("1a0")

    def test_canonical_subcube(self):
        assert canonical_subcube([0b1000, 0b1010], 4) == "10*0"
        assert canonical_subcube([5], 3) == "101"

    def test_canonical_subcube_contains_all(self):
        labels = [1, 3, 9]
        pattern = canonical_subcube(labels, 4)
        members = set(subcube_members(pattern))
        assert set(labels) <= members
        # a shortest route between two of them never leaves their subcube
        for a in labels:
            for b in labels:
                path = shortest_path(IncompleteHypercube(4), a, b)
                assert set(path) <= members

    def test_canonical_subcube_empty_raises(self):
        with pytest.raises(ValueError):
            canonical_subcube([], 3)


class TestGrayCode:
    """A Gray code walks every node of the complete cube along its links."""

    def test_length(self):
        assert len(gray_code(4)) == IncompleteHypercube(4).size == 16

    def test_adjacent_entries_differ_by_one_bit(self):
        code = gray_code(5)
        for a, b in zip(code, code[1:]):
            assert hamming_distance(a, b) == 1
        assert path_is_valid(IncompleteHypercube(5), code)

    def test_is_permutation(self):
        assert sorted(gray_code(4)) == list(IncompleteHypercube(4).nodes())

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            gray_code(-1)
