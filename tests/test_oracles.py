"""The test helpers in oracles.py that the engines no longer carry."""

import pytest

from commlab.finengine import Congruence, FiniteAlgebra
from oracles import adjacent_vertices, is_compatible, related_pairs, relates

Z4 = FiniteAlgebra.from_tables(
    4, [("add", 2, [(i + j) % 4 for i in range(4) for j in range(4)])]
)


def test_adjacent_vertices():
    assert adjacent_vertices(3, 1) == {2, 3, 5}
    assert adjacent_vertices(2, 4) == {2, 3}
    with pytest.raises(IndexError):
        adjacent_vertices(2, 0)


def test_is_compatible_and_relates():
    cosets = Congruence(4, ((0, 2), (1, 3)))
    halves = Congruence(4, ((0, 1), (2, 3)))
    assert is_compatible(Z4, cosets)
    assert not is_compatible(Z4, halves)
    assert relates(cosets, 0, 2) and not relates(cosets, 0, 1)
    assert related_pairs(cosets) == [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1), (1, 3), (3, 1), (3, 3)]
