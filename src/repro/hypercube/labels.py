"""Hypercube node labels and bit-string algebra.

An *n*-dimensional hypercube has ``2**n`` nodes, each labelled by a bit
string ``k1 ... kn``.  Two nodes are adjacent iff their labels differ in
exactly one bit; the Hamming distance between two labels is the number of
differing bits (paper Section 2.1).  Labels are represented as plain
Python integers in ``[0, 2**n)`` -- dimension *i* corresponds to bit
``1 << i``.
"""

from __future__ import annotations

from typing import List


def is_valid_label(label: int, dimension: int) -> bool:
    """True if ``label`` is a legal node label of a ``dimension``-cube."""
    return 0 <= label < (1 << dimension)


def _check_label(label: int, dimension: int) -> None:
    if not is_valid_label(label, dimension):
        raise ValueError(
            f"label {label} out of range for a {dimension}-dimensional hypercube"
        )


def hamming_distance(a: int, b: int) -> int:
    """Number of bit positions in which labels ``a`` and ``b`` differ."""
    return (a ^ b).bit_count()


def differing_dimensions(a: int, b: int) -> List[int]:
    """Sorted list of dimensions (bit indices) in which ``a`` and ``b`` differ."""
    diff = a ^ b
    dims: List[int] = []
    i = 0
    while diff:
        if diff & 1:
            dims.append(i)
        diff >>= 1
        i += 1
    return dims


def all_labels(dimension: int) -> range:
    """All labels of a complete ``dimension``-cube, in increasing order."""
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    return range(1 << dimension)


def label_to_bits(label: int, dimension: int) -> str:
    """Render a label as a bit string of length ``dimension`` (MSB first).

    This matches the paper's notation, e.g. node ``1000`` of the 4-D cube
    of Figure 3 is label ``8``.
    """
    _check_label(label, dimension)
    return format(label, f"0{dimension}b")
