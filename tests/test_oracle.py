import itertools
import random
from fractions import Fraction

import pytest
from interval_ref import Interval, build, parts

from fuzzcyl import (
    FuzzySet,
    GridOracle,
    cyl_contains,
    empty_cylinder,
    ground,
    oracle_rasterize,
    psi_star,
    whole_cylinder,
)
from fuzzcyl.checks import OracleLedger, psi_predicate
from fuzzcyl.cylinder import CylinderOpen
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


# ---------------------------------------------------------------------------
# the key raster against the per-cell membership test it replaced

RESOLUTIONS = (2, 3, 7, 64, 100)
# every resolution gets endpoints on its grid (denominators that divide it)
# and off it (the others)
DENOMINATORS = (1, 2, 3, 4, 7, 9, 35, 64, 100)
XYZ = ground("x", "y", "z")


def reference_raster(c, resolution):
    return tuple(tuple(cyl_contains(c, x, Fraction(k, resolution))
                       for k in range(resolution))
                 for x in c.ground.elements)


def random_fiber(rng):
    """Up to three intervals with endpoints in [0,1), each flag pair drawn
    at random, and sometimes a closed point such as {0}."""
    pieces = []
    for _ in range(rng.randint(0, 3)):
        den = rng.choice(DENOMINATORS)
        lo, hi = sorted(Fraction(rng.randrange(den), den) for _ in range(2))
        if lo == hi or rng.random() < 0.15:
            pieces.append(Interval(lo, lo, True, True))
        else:
            pieces.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    if rng.random() < 0.2:
        pieces.append(Interval(Fraction(0), Fraction(0), True, True))
    return build(pieces)


def test_key_raster_matches_per_cell_membership():
    rng = random.Random(12_064)
    on_grid = {(n, closed): 0 for n in RESOLUTIONS for closed in (False, True)}
    for _ in range(300):
        c = CylinderOpen(XYZ, tuple(random_fiber(rng) for _ in XYZ.elements))
        for n in RESOLUTIONS:
            assert oracle_rasterize(c, n).cells == reference_raster(c, n)
            for fib in c.fibers:
                for p in parts(fib):
                    for q, closed in ((p.lo, p.lo_closed), (p.hi, p.hi_closed)):
                        if q < 1 and (q * n).denominator == 1:
                            on_grid[n, closed] += 1
    # every grid saw endpoints of both kinds fall on one of its cells
    assert min(on_grid.values()) > 0


@pytest.mark.parametrize("lo_closed, hi_closed",
                         list(itertools.product((False, True), repeat=2)))
def test_key_raster_flags_on_the_grid(lo_closed, hi_closed):
    """[1/4, 1/2] with each flag pair, and the point {0}, on grids that put
    both ends on a cell (4, 64, 100) and grids that miss them (3, 7)."""
    fib = build([Interval(Fraction(1, 4), Fraction(1, 2), lo_closed, hi_closed)])
    point = build([Interval(Fraction(0), Fraction(0), True, True)])
    c = CylinderOpen(AB, (fib, point))
    for n in (3, 4, 7, 64, 100):
        raster = oracle_rasterize(c, n)
        assert raster.cells == reference_raster(c, n)
        assert raster.cell("b", 0) and not any(raster.cells[1][1:])
    raster = oracle_rasterize(c, 4)
    assert (raster.cell("a", 1), raster.cell("a", 2)) == (lo_closed, hi_closed)


# ---------------------------------------------------------------------------
# first mismatch and the ledger's failure records


def corrupt(raster, cells):
    rows = [list(v) for v in raster.cells]
    for i, k in cells:
        rows[i][k] = not rows[i][k]
    return GridOracle(raster.ground, raster.resolution, tuple(tuple(v) for v in rows))


def test_first_mismatch_reports_the_first_cell_in_ground_then_level_order():
    below = psi_star(FuzzySet.from_dict(AB, {"a": F(1, 3), "b": F(5, 8)}))
    honest = oracle_rasterize(below, 64)
    assert first_mismatch(below, corrupt(honest, [(1, 3), (0, 50), (0, 20), (1, 0)])) \
        == ("a", F(20, 64))
    assert first_mismatch(below, corrupt(honest, [(1, 63), (1, 40), (1, 41)])) \
        == ("b", F(40, 64))
    # only the second element is wrong, at its last cell
    assert first_mismatch(below, corrupt(honest, [(1, 63)])) == ("b", F(63, 64))


def test_ledger_reports_a_wrong_predicate_at_its_first_cell():
    """v <= f(x) differs from psi_star(f) exactly at the cell f(x), when
    f(x) lies on the grid: 1/2 does on the grid of 64 and 1/3 does not."""
    f = FuzzySet.from_dict(AB, {"a": F(1, 3), "b": F(1, 2)})
    levels = f.values_dict()
    ledger = OracleLedger()
    ledger.add("honest", psi_star(f), psi_predicate(f))
    ledger.add("wrong", psi_star(f), lambda x, v: v <= levels[x])
    result = ledger.verify(64)
    assert result.checked == 2
    assert result.failures == [("wrong", "b", F(32, 64))]
    g = FuzzySet.from_dict(AB, {"a": F(1, 4), "b": F(1, 2)})
    ledger = OracleLedger()
    ledger.add("wrong", psi_star(g), lambda x, v: v <= g(x))
    assert ledger.verify(64).failures == [("wrong", "a", F(16, 64))]
