"""Grid oracle: rasterizes cylinder sets at levels k/N and cross-checks
symbolic results cell-for-cell.

Both sides are integers.  The symbolic raster reads each fiber's boundary
keys (``intervals.iv_grid``): a key pair [s, e) holds the cells from the
first cell after s up to the first after e, where the first cell after the
key 2m is ceil(m·N/den) and after 2m+1 it is floor(m·N/den) + 1, clamped
to N.  The brute-force side it is checked against is independent of the
keys: a membership predicate stated from first principles in
cross-multiplied integers and called as ``predicate(x, k, N)`` for each
cell (see ``checks.OracleLedger``).  A mismatch is reported at its first
cell as ``Fraction(k, N)``.

The grid samples only rational points of the form k/N, so it cannot see
open/closed endpoint distinctions off the grid; endpoint flags are covered
by the symbolic unit tests instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cylinder import CylinderOpen
from .fuzzy import GroundSet
from .intervals import iv_grid


@dataclass(frozen=True)
class GridOracle:
    """A boolean raster of a cylinder subset, one vector per ground element."""

    ground: GroundSet
    resolution: int
    cells: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if len(self.cells) != len(self.ground.elements):
            raise ValueError("one cell vector per ground element required")
        for vec in self.cells:
            if len(vec) != self.resolution:
                raise ValueError("cell vector length must equal the resolution")


def oracle_rasterize(c: CylinderOpen, resolution: int) -> GridOracle:
    """Cell (x, k/N) is true iff the point lies in the set."""
    cells = tuple(iv_grid(fib, resolution) for fib in c.fibers)
    return GridOracle(c.ground, resolution, cells)


def first_mismatch(symbolic: CylinderOpen,
                   brute: GridOracle) -> Optional[tuple[str, Fraction]]:
    """The first cell, in ground order and then by k, where the raster of
    ``symbolic`` and ``brute``, a raster over the same ground, differ; None
    when they agree everywhere."""
    raster = oracle_rasterize(symbolic, brute.resolution)
    for x, row, expect in zip(brute.ground.elements, raster.cells, brute.cells):
        if row != expect:
            k = next(k for k in range(brute.resolution) if row[k] != expect[k])
            return (x, Fraction(k, brute.resolution))
    return None
