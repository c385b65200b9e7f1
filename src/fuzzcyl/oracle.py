"""Grid oracle: rasterizes cylinder sets at levels k/N and cross-checks
symbolic results cell-for-cell against membership predicates.

Both sides are integers.  The symbolic raster reads each fiber's boundary
keys (``intervals.iv_grid``): a key pair [s, e) holds the cells from the
first cell after s up to the first after e, where the first cell after the
key 2m is ceil(m·N/den) and after 2m+1 it is floor(m·N/den) + 1, clamped
to N.  The brute-force side it is checked against is independent of the
keys: a membership predicate stated from first principles in
cross-multiplied integers and called as ``predicate(x, k, N)`` for each
cell.  A mismatch is reported at its first cell as ``Fraction(k, N)``.

Every predicate lives here, apart from the code it checks: of the package
this module imports only the types it reads and ``iv_grid``.  psi_star(f)
holds n·b < a·d where f(x) = a/b, and the other predicates are built from
that rule and ``subbasis_predicate``, each from (numerator, denominator)
pairs taken once when it is built.

The grid samples only rational points of the form k/N, so it cannot see
open/closed endpoint distinctions off the grid; endpoint flags are covered
by the symbolic unit tests instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .cylinder import CylinderOpen, OpenExpr, SubbasisElem
from .fuzzy import FuzzySet, FuzzyTopology, GroundSet
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


# ---------------------------------------------------------------------------
# membership predicates

# A membership predicate on X x J: predicate(x, n, d) decides whether the
# point (x, n/d) lies in the set, for integers with 0 <= n < d and n/d not
# necessarily reduced, the level form ``IntervalSet.holds`` takes.  The
# predicates are stated from the membership values and gammas alone, never
# from boundary keys, so the grid oracle can check the interval algebra.
Predicate = Callable[[str, int, int], bool]


def subbasis_predicate(e: SubbasisElem, topo: FuzzyTopology) -> Predicate:
    """Membership in the subbasis open, ``SubbasisElem``'s rule in integers.
    With gamma = g/c and T(x) = a/b: pi2 holds at n/d when n/d > g/c, that
    is n·c > g·d; tstar when a/b - n/d > g/c, that is (a·d - n·b)·c > g·b·d."""
    g, c = e.gamma.numerator, e.gamma.denominator
    if e.kind == "pi2":
        return lambda x, n, d: n * c > g * d
    levels = topo.open_named(e.open_name).ratios()

    def above(x: str, n: int, d: int) -> bool:
        a, b = levels[x]
        return (a * d - n * b) * c > g * b * d
    return above


def psi_predicate(f: FuzzySet) -> Predicate:
    """psi_star(f), the levels below f: n/d < f(x) = a/b, that is n·b < a·d."""
    levels = f.ratios()

    def below(x: str, n: int, d: int) -> bool:
        a, b = levels[x]
        return n * b < a * d
    return below


def set_complement_predicate(f: FuzzySet) -> Predicate:
    """The complement of psi_star(f) in X x J: the points ``psi_predicate``
    rejects."""
    below = psi_predicate(f)
    return lambda x, n, d: not below(x, n, d)


def expr_predicate(expr: OpenExpr, topo: FuzzyTopology) -> Predicate:
    clause_preds = [[subbasis_predicate(e, topo) for e in clause]
                    for clause in expr.clauses]
    return lambda x, n, d: any(all(p(x, n, d) for p in clause)
                               for clause in clause_preds)


def sigma_predicate(e: SubbasisElem, topo: FuzzyTopology) -> Predicate:
    """The image of the subbasis open under the slice retraction: level 0 of
    each fiber the open meets.  A fiber of e is down-closed for tstar, so it
    meets e when (x, 0) does, e's own test at n/d = 0/1; for pi2 every fiber
    meets e, whose gamma is below 1."""
    if e.kind == "pi2":
        return lambda x, n, d: n == 0
    holds = subbasis_predicate(e, topo)
    return lambda x, n, d: n == 0 and holds(x, 0, 1)
