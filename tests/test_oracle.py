from fractions import Fraction

import pytest

from fuzzcyl import (
    FuzzySet,
    GridOracle,
    empty_cylinder,
    ground,
    oracle_rasterize,
    psi_star,
    whole_cylinder,
)
from fuzzcyl.oracle import first_mismatch

F = Fraction
AB = ground("a", "b")


def test_rasterize_psi_third():
    raster = oracle_rasterize(psi_star(FuzzySet.constant(AB, F(1, 3))), 6)
    for x in ("a", "b"):
        assert [raster.cell(x, k) for k in range(6)] == \
            [True, True, False, False, False, False]


def test_rasterize_whole_and_empty():
    assert all(all(vec) for vec in oracle_rasterize(whole_cylinder(AB), 4).cells)
    assert not any(any(vec) for vec in oracle_rasterize(empty_cylinder(AB), 4).cells)


def test_rasterize_rejects_small_resolution():
    with pytest.raises(ValueError):
        oracle_rasterize(whole_cylinder(AB), 1)


def test_first_mismatch():
    below = psi_star(FuzzySet.constant(AB, F(1, 3)))
    assert first_mismatch(below, oracle_rasterize(below, 64)) is None
    corrupted = oracle_rasterize(below, 64)
    cells = [list(v) for v in corrupted.cells]
    cells[0][40] = not cells[0][40]
    bad = GridOracle(AB, 64, tuple(tuple(v) for v in cells))
    assert first_mismatch(below, bad) == ("a", F(40, 64))
