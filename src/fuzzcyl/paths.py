"""Closed-form path calculus on the cylinder.

Paths are a closed DSL rather than arbitrary maps: constants, vertical
affine segments, horizontal lifts of fence paths, concatenations (binary
halving, left-nested), reversals, homotopy transforms, and the boundary
paths of the square free homotopy.  A boundary path ``ChiBoundary(rho, s,
t, end)`` is the vertical path over the point (x, a) of rho at its end,
from the level (1 - s)·a to (1 - t)·a; its fields are checked when the
node is built.

Every such path is piecewise affine in its parameter u.  An expression is
compiled once, on first use, into a :class:`PathTable` of integers over one
denominator: the sorted breakpoints (concatenation splits and fence ends),
the point at each breakpoint, and on each open piece between them a fixed
ground element with an affine level ``c0 + c1 u``.  The table is cached on
the node outside its dataclass fields, so equality, hashing, repr and JSON
are those of the expression; merged and reduced, it is the path's normal
form.  Evaluation is one checked integer pass per row of parameters:
``eval_keys`` and ``chi_keys`` check every value of the row lies in [0,1]
(a ``Fraction`` on its numerator and denominator) before any lookup, find
each p/q on the table by bisecting the breakpoints with no key function
for the first b >= ceil(p·den/q), and check each key's level lies in J and
reduce it to ``(x, n, d)`` in lowest terms in the same loop; the
endpoints are the table's first and last points.  The grid checks compare
these rows of exact keys, on grids that ``checks`` builds once per step.
The exact preimage of a cylinder set is read off the table: each
breakpoint whose point lies in its fiber, and each open piece, whole or
cut by ``intervals.iv_preimage`` of its fiber under its level.  Continuity is
decided on the table too, in integers: ``continuity_failure`` checks each
breakpoint against its adjacent pieces (one level test, one test in the
base's specialization order).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .base_space import Order, specialization_preorder
from .cylinder import CylPoint, CylinderOpen
from .fuzzy import FuzzyTopology
from .intervals import (
    IntervalSet,
    iv_intersect,
    iv_preimage,
    iv_span,
    iv_union,
)
from .rationals import ONE, format_rational, frac, required_field, unit


def kappa(s, t, x) -> Fraction:
    """The segment path in [0,1] from s to t: (t - s) * x + s."""
    s = unit(frac(s), "kappa argument")
    t = unit(frac(t), "kappa argument")
    x = unit(frac(x), "kappa argument")
    return (t - s) * x + s


@dataclass(frozen=True)
class FencePath:
    """A path along consecutively comparable ground elements.

    ``interiors[i]`` is the value taken on the open interior of segment i:
    the specialization-larger endpoint, so that preimages of opens are open.
    """

    steps: tuple[str, ...]
    interiors: tuple[str, ...]

    def __post_init__(self):
        if not all(type(x) is str for x in self.steps + self.interiors):
            raise TypeError(f"fence elements must be strings: {self!r}")
        if not self.steps:
            raise ValueError("fence path needs at least one step")
        if len(self.interiors) != len(self.steps) - 1:
            raise ValueError("one interior value per segment required")
        for a, b, x in zip(self.steps, self.steps[1:], self.interiors):
            if x not in (a, b):
                raise ValueError(f"interior value {x!r} is neither end of segment {a}, {b}")

    def to_json(self) -> dict:
        return {"steps": list(self.steps), "interiors": list(self.interiors)}


def make_fence_path(steps, relation: Order) -> FencePath:
    """Validate comparability against a specialization preorder and fix the
    interior representative of each segment."""
    steps = tuple(steps)
    interiors = []
    for a, b in zip(steps, steps[1:]):
        if b in relation[a]:
            interiors.append(b)
        elif a in relation[b]:
            interiors.append(a)
        else:
            raise ValueError(f"consecutive fence elements not comparable: {a}, {b}")
    return FencePath(steps, tuple(interiors))


@dataclass(frozen=True)
class Const:
    point: CylPoint


@dataclass(frozen=True)
class VerticalAffine:
    """u -> (x, a0 + (a1 - a0) u); levels stay in [0,1)."""

    x: str
    a0: Fraction
    a1: Fraction

    def __post_init__(self):
        if type(self.x) is not str:
            raise TypeError(f"ground element must be a string: {self.x!r}")
        unit(self.a0, "vertical level", top_open=True)
        unit(self.a1, "vertical level", top_open=True)


@dataclass(frozen=True)
class HLift:
    """A fence path in the base, lifted horizontally to a fixed level."""

    base: FencePath
    level: Fraction

    def __post_init__(self):
        unit(self.level, "lift level", top_open=True)


@dataclass(frozen=True)
class Concat:
    parts: tuple["PathExpr", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("concatenation needs at least two parts")
        for a, b in zip(self.parts, self.parts[1:]):
            if path_end(a) != path_start(b):
                raise ValueError(
                    f"concatenation endpoints mismatch: {path_end(a)} vs {path_start(b)}")


@dataclass(frozen=True)
class Reverse:
    inner: "PathExpr"


@dataclass(frozen=True)
class HTransform:
    """The homotopy applied at a fixed time to every point of a path."""

    t: Fraction
    inner: "PathExpr"

    def __post_init__(self):
        unit(self.t, "homotopy time")


@dataclass(frozen=True)
class ChiBoundary:
    """Boundary path of the square free homotopy: x -> H(kappa(s,t)(x), rho(end))."""

    rho: "PathExpr"
    s: Fraction
    t: Fraction
    end: int

    def __post_init__(self):
        if type(self.end) is not int or self.end not in (0, 1):
            raise ValueError(f"end must be the integer 0 or 1: {self.end!r}")
        unit(self.s, "homotopy time")
        unit(self.t, "homotopy time")


PathExpr = Union[Const, VerticalAffine, HLift, Concat, Reverse, HTransform, ChiBoundary]


def path_start(e: PathExpr) -> CylPoint:
    return path_table(e).point(0)


def path_end(e: PathExpr) -> CylPoint:
    return path_table(e).point(-1)


# ---------------------------------------------------------------------------
# the compiled piecewise-affine table


@dataclass(frozen=True)
class PathTable:
    """A path as integers over ``den > 0``: breakpoints ``0 = b_0 < ... < b_m
    = den``, the point ``(x, a)`` at each, and one ``(x, c0, c1)`` per open
    piece ``(b_j, b_{j+1})``, on which the path is ``u -> (x, (c0 + c1 u)/den)``."""

    den: int
    breaks: tuple[int, ...]
    points: tuple[tuple[str, int], ...]
    pieces: tuple[tuple[str, int, int], ...]

    def point(self, j: int) -> CylPoint:
        x, a = self.points[j]
        return CylPoint(x, Fraction(a, self.den))


def _compile(e: PathExpr) -> PathTable:
    if isinstance(e, Const):
        e = VerticalAffine(e.point.x, e.point.alpha, e.point.alpha)
    if isinstance(e, HLift) and len(e.base.steps) == 1:
        e = VerticalAffine(e.base.steps[0], e.level, e.level)
    if isinstance(e, VerticalAffine):
        d = lcm(e.a0.denominator, e.a1.denominator)
        a0, a1 = int(e.a0 * d), int(e.a1 * d)
        return PathTable(d, (0, d), ((e.x, a0), (e.x, a1)), ((e.x, a0, a1 - a0),))
    if isinstance(e, HLift):
        k = len(e.base.steps) - 1
        d = lcm(k, e.level.denominator)
        a = int(e.level * d)
        return PathTable(d, tuple(i * d // k for i in range(k + 1)),
                         tuple((x, a) for x in e.base.steps),
                         tuple((x, a, 0) for x in e.base.interiors))
    if isinstance(e, Concat):
        # left-nested halving: part k of n runs over [lo/w, (lo + 1)/w] with
        # lo = min(k, 1) and w = 2^(n - max(k, 1)); a split keeps the left point
        parts = [(min(k, 1), 2 ** (len(e.parts) - max(k, 1)), path_table(part))
                 for k, part in enumerate(e.parts)]
        d = lcm(*(w * table.den for _, w, table in parts))
        breaks, points, pieces = [0], [], []
        for lo, w, table in parts:
            f = d // (w * table.den)
            breaks.extend(f * (lo * table.den + b) for b in table.breaks[1:])
            points.extend((x, a * f * w) for x, a in table.points[lo:])
            pieces.extend((x, (c0 - lo * c1) * f * w, c1 * f * w * w)
                          for x, c0, c1 in table.pieces)
        return PathTable(d, tuple(breaks), tuple(points), tuple(pieces))
    if isinstance(e, Reverse):
        table = path_table(e.inner)
        return PathTable(table.den, tuple(table.den - b for b in reversed(table.breaks)),
                         table.points[::-1],
                         tuple((x, c0 + c1, -c1) for x, c0, c1 in reversed(table.pieces)))
    if isinstance(e, HTransform):
        p, q = e.t.as_integer_ratio()  # levels scale by 1 - t = (q - p)/q
        table = path_table(e.inner)
        return PathTable(table.den * q, tuple(b * q for b in table.breaks),
                         tuple((x, (q - p) * a) for x, a in table.points),
                         tuple((x, (q - p) * c0, (q - p) * c1) for x, c0, c1 in table.pieces))
    if isinstance(e, ChiBoundary):
        anchor = (path_start, path_end)[e.end](e.rho)
        return _compile(VerticalAffine(anchor.x, (ONE - e.s) * anchor.alpha,
                                       (ONE - e.t) * anchor.alpha))
    raise TypeError(f"not a path expression: {e!r}")


def path_table(e: PathExpr) -> PathTable:
    """The compiled table of ``e``, built on first use and kept in the
    node's ``__dict__``, outside its dataclass fields."""
    try:
        return e.__dict__["_table"]
    except KeyError:
        table = e.__dict__["_table"] = _compile(e)
        return table
    except AttributeError:
        raise TypeError(f"not a path expression: {e!r}") from None


def _ratios(us, what: str) -> list[tuple[int, int]]:
    """``(p, q)`` with u = p/q for each u of ``us``, each checked to lie in
    [0,1] before any is used: a Fraction is read and checked in integers,
    anything else goes through ``frac`` first, and a value outside [0,1]
    goes to ``unit``, which raises."""
    ratios = []
    for u in us:
        if type(u) is not Fraction:
            u = frac(u)
        p, q = u.as_integer_ratio()
        if not 0 <= p <= q:
            unit(u, what)
        ratios.append((p, q))
    return ratios


def _locations(table: PathTable, ratios) -> list[tuple[str, int, int]]:
    """``(x, n, d)`` with ``e(p/q) = (x, n/d)`` for each ``(p, q)`` of
    ``ratios``, where ``table`` is that of ``e``; n/d is not reduced."""
    den, breaks, located = table.den, table.breaks, []
    for p, q in ratios:
        # the first breakpoint b/den >= p/q: b*q >= p*den, so b >= ceil(p*den/q)
        pd = p * den
        j = bisect_left(breaks, -(-pd // q))
        if breaks[j] * q == pd:
            x, a = table.points[j]
            located.append((x, a, den))
        else:
            x, c0, c1 = table.pieces[j - 1]
            located.append((x, c0 * q + c1 * p, den * q))
    return located


def eval_keys(e: PathExpr, us) -> list[tuple[str, int, int]]:
    """The exact key ``(x, n, d)`` of the point (x, n/d) = e(u), in lowest
    terms, at each u of ``us``; each level is checked to lie in J."""
    keys = []
    for x, n, d in _locations(path_table(e), _ratios(us, "path parameter")):
        if not 0 <= n < d:
            unit(Fraction(n, d), "level", top_open=True)
        g = gcd(n, d)
        keys.append((x, n // g, d // g))
    return keys


def chi_keys(rho: PathExpr, s, t, etas, xs) -> list[list[tuple[str, int, int]]]:
    """The square free homotopy H(kappa(s,t)(x), rho(eta)) as exact keys
    ``(x, n, d)`` in lowest terms: one row per eta of ``etas``, one key per
    x of ``xs``; each level is checked to lie in J."""
    (sn, sd), (tn, td) = _ratios((s, t), "kappa argument")
    # 1 - kappa(s,t)(x) = 1 - s - (t - s) x, as one fraction over sd td xd
    keeps = [((sd - sn) * td * xd - (tn * sd - sn * td) * xn, sd * td * xd)
             for xn, xd in _ratios(xs, "kappa argument")]
    ratios = _ratios(etas, "path parameter")
    rows = []
    for y, n, d in _locations(path_table(rho), ratios):
        row = []
        for keep, keep_den in keeps:
            kn, kd = keep * n, keep_den * d
            if not 0 <= kn < kd:
                unit(Fraction(kn, kd), "level", top_open=True)
            g = gcd(kn, kd)
            row.append((y, kn // g, kd // g))
        rows.append(row)
    return rows


def first_difference(grid: Sequence[Fraction], row: Sequence,
                     other: Sequence) -> Optional[Fraction]:
    """The first value of ``grid`` at which the key rows ``row`` and
    ``other``, listed along it, differ, or None when they are equal."""
    if row == other:
        return None
    return next(u for u, a, b in zip(grid, row, other) if a != b)


def eval_path(e: PathExpr, u) -> CylPoint:
    x, n, d = eval_keys(e, (u,))[0]
    return CylPoint(x, Fraction(n, d))


def chi_eval(rho: PathExpr, s, t, eta, x) -> CylPoint:
    """The square free homotopy value H(kappa(s,t)(x), rho(eta))."""
    y, n, d = chi_keys(rho, s, t, (eta,), (x,))[0][0]
    return CylPoint(y, Fraction(n, d))


# ---------------------------------------------------------------------------
# exact preimages and continuity


def path_preimage(e: PathExpr, open_set: CylinderOpen) -> IntervalSet:
    """Exact parameter set {u in [0,1] : e(u) in open_set}, read off the
    table: the union, in one ``iv_union``, of each breakpoint whose point
    lies in its fiber, and of each open piece, whole when it is flat at a
    level in its fiber (``holds``), or, when sloped, cut to the u whose
    level (c0 + c1·u)/den lies in its fiber (``iv_preimage``)."""
    table = path_table(e)
    den, breaks = table.den, table.breaks
    parts = [iv_span(den, b, b, False, True) for b, (x, a) in zip(breaks, table.points)
             if open_set.fiber(x).holds(a, den)]
    for lo, hi, (x, c0, c1) in zip(breaks, breaks[1:], table.pieces):
        fib, piece = open_set.fiber(x), iv_span(den, lo, hi, True, False)
        if c1:
            parts.append(iv_intersect(piece, iv_preimage(fib, c0, c1, den)))
        elif fib.holds(c0, den):
            parts.append(piece)
    return iv_union(*parts)


def continuity_failure(e: PathExpr,
                       topo: FuzzyTopology) -> Optional[tuple[Fraction, str, str]]:
    """The first breakpoint side at which ``e`` is not continuous into the
    cylinder of ``topo``, as ``(u, "left" or "right", "level-jump" or
    "below")``, or None when ``e`` is continuous.

    The cylinder is the product of the base X_tau with J, and the base has
    the least neighbourhood U_y = ``specialization_preorder(topo)[y]`` at
    each y, so ``e`` is continuous at u exactly when its level is and its
    element lies in U_y near u, with (y, a) = e(u).  On each open piece of
    the table the element is fixed and the level affine, so only the
    breakpoints can fail.  At a breakpoint with point (y, a), each adjacent
    piece, on x, must reach the level a there (otherwise "level-jump"), and
    x must lie in U_y (otherwise "below": some T* has its limit below its
    value, since T(x) < T(y) for some open T).
    """
    return _table_continuity_failure(path_table(e), topo)


def _table_continuity_failure(table: PathTable, topo: FuzzyTopology
                              ) -> Optional[tuple[Fraction, str, str]]:
    """``continuity_failure`` on a compiled table."""
    den, pieces = table.den, table.pieces
    order = specialization_preorder(topo)
    for j, (b, (y, a)) in enumerate(zip(table.breaks, table.points)):
        for side, near in (("left", pieces[max(j - 1, 0):j]), ("right", pieces[j:j + 1])):
            for x, c0, c1 in near:
                # the piece's limit (c0 + c1 b/den)/den against a/den
                if c0 * den + c1 * b != a * den:
                    return Fraction(b, den), side, "level-jump"
                if x not in order[y]:
                    return Fraction(b, den), side, "below"
    return None


def normalize_path(e: PathExpr) -> PathTable:
    """The canonical table of ``e``: its compiled table with every interior
    breakpoint that the path passes straight through merged away, over the
    smallest common denominator of what is kept, so two paths have equal
    normal forms exactly when they are the same map on [0,1]."""
    table, kept = path_table(e), [0]
    for j, (x, c0, c1) in enumerate(table.pieces[1:], 1):
        # b_j merges away when one piece runs on through its point:
        # a/den = (c0 + c1 b_j/den)/den
        y, a = table.points[j]
        if table.pieces[j - 1] != (x, c0, c1) or (y, a * table.den) != (
                x, c0 * table.den + c1 * table.breaks[j]):
            kept.append(j)
    breaks = [table.breaks[j] for j in kept] + [table.den]
    points = [table.points[j] for j in kept] + [table.points[-1]]
    pieces = [table.pieces[j] for j in kept]
    g = gcd(*breaks, *(a for _, a in points), *(c for _, c0, c1 in pieces for c in (c0, c1)))
    return PathTable(table.den // g, tuple(b // g for b in breaks),
                     tuple((x, a // g) for x, a in points),
                     tuple((x, c0 // g, c1 // g) for x, c0, c1 in pieces))


def pasting_failure(gamma: PathExpr, delta: PathExpr, s, t,
                    grid: Sequence[Fraction]) -> Optional[tuple[Fraction, Fraction]]:
    """The first grid pair (eta, x) at which the square homotopy of the
    concatenation of gamma and delta differs from the pasting of the
    squares of gamma (for eta <= 1/2) and delta (for eta > 1/2), or None."""
    doubled = [2 * eta for eta in grid]
    # the rows of each square, each in grid order
    lower = iter(chi_keys(gamma, s, t, [v for v in doubled if v <= ONE], grid))
    upper = iter(chi_keys(delta, s, t, [v - 1 for v in doubled if v > ONE], grid))
    whole = chi_keys(Concat((gamma, delta)), s, t, grid, grid)
    for eta, v, row in zip(grid, doubled, whole):
        x = first_difference(grid, row, next(lower if v <= ONE else upper))
        if x is not None:
            return eta, x
    return None


def functor_object_path(F, y: str, z: str, beta) -> VerticalAffine:
    """The object path of the induced groupoid functor: the vertical path
    u -> (z, (1 - kappa(F(y), 1-F(y))(u)) * beta)."""
    beta = unit(frac(beta), "level", top_open=True)
    fy = F(y)
    return VerticalAffine(z, (ONE - fy) * beta, fy * beta)


def path_to_json(e: PathExpr) -> dict:
    if isinstance(e, Const):
        return {"type": "const", "point": e.point.to_json()}
    if isinstance(e, VerticalAffine):
        return {"type": "vertical", "x": e.x,
                "a0": format_rational(e.a0), "a1": format_rational(e.a1)}
    if isinstance(e, HLift):
        return {"type": "hlift", "base": e.base.to_json(),
                "level": format_rational(e.level)}
    if isinstance(e, Concat):
        return {"type": "concat", "parts": [path_to_json(p) for p in e.parts]}
    if isinstance(e, Reverse):
        return {"type": "reverse", "inner": path_to_json(e.inner)}
    if isinstance(e, HTransform):
        return {"type": "h_transform", "t": format_rational(e.t),
                "inner": path_to_json(e.inner)}
    if isinstance(e, ChiBoundary):
        return {"type": "chi_boundary", "rho": path_to_json(e.rho),
                "s": format_rational(e.s), "t": format_rational(e.t), "end": e.end}
    raise TypeError(f"not a path expression: {e!r}")


def path_from_json(doc: dict) -> PathExpr:
    """The path of a JSON document as ``path_to_json`` writes it; malformed
    structure raises TypeError or ValueError naming the fault."""
    kind = required_field(doc, "type", "path expression")

    def field(key: str):
        return required_field(doc, key, f"{kind} path")
    if kind == "const":
        return Const(CylPoint.from_json(field("point"), "point"))
    if kind == "vertical":
        return VerticalAffine(field("x"), frac(field("a0")), frac(field("a1")))
    if kind == "hlift":
        base = field("base")
        steps = required_field(base, "steps", "hlift base")
        interiors = required_field(base, "interiors", "hlift base")
        if not (isinstance(steps, list) and isinstance(interiors, list)):
            raise TypeError("fence steps and interiors must be arrays")
        return HLift(FencePath(tuple(steps), tuple(interiors)), frac(field("level")))
    if kind == "concat":
        parts = field("parts")
        if not isinstance(parts, list):
            raise TypeError("concat parts must be an array of paths")
        return Concat(tuple(path_from_json(p) for p in parts))
    if kind == "reverse":
        return Reverse(path_from_json(field("inner")))
    if kind == "h_transform":
        return HTransform(frac(field("t")), path_from_json(field("inner")))
    if kind == "chi_boundary":
        return ChiBoundary(path_from_json(field("rho")), frac(field("s")),
                           frac(field("t")), field("end"))
    raise ValueError(f"unknown path expression type {kind!r}")
