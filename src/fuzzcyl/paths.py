"""Closed-form path calculus on the cylinder.

Paths are a closed DSL rather than arbitrary maps: constants, vertical
affine segments, horizontal lifts of fence paths, concatenations (binary
halving, left-nested), reversals, homotopy transforms, and the boundary
paths of the square free homotopy.

Every such path is piecewise affine in its parameter u.  An expression is
compiled once, on first use, into a :class:`PathTable`: the sorted
breakpoints (concatenation splits and fence ends), the point at each
breakpoint, and on each open piece between them a fixed ground element
with an affine level ``c0 + c1 u``.  The table is cached on the node
outside its dataclass fields, so equality, hashing, repr and JSON are
those of the expression; with its pass-through breakpoints merged away it
is the path's normal form.  Evaluation is one bisection into the table.
The exact preimage of a cylinder set is read off it piece by piece, so
continuity against subbasis opens is decidable, and image containment is
a preimage equal to [0,1].
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .cylinder import CylinderOpen, SubbasisElem, subbasis_realize
from .fuzzy import FuzzyTopology
from .intervals import (
    Interval,
    IntervalSet,
    canonical,
    is_open_in_unit,
    make_unit_interval,
)
from .rationals import ONE, ZERO, format_rational, frac, unit
from .retraction import CylPoint, h_eval


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
        if not self.steps:
            raise ValueError("fence path needs at least one step")
        if len(self.interiors) != max(len(self.steps) - 1, 0):
            raise ValueError("one interior value per segment required")

    def element_at(self, u: Fraction) -> str:
        """Evaluate; a dyadic breakpoint takes the right segment's start."""
        unit(u, "parameter")
        k = len(self.steps) - 1
        if k == 0:
            return self.steps[0]
        if u == ONE:
            return self.steps[-1]
        scaled = u * k
        i = int(scaled)
        local = scaled - i
        if local == ZERO:
            return self.steps[i]
        return self.interiors[i]

    def to_json(self) -> dict:
        return {"steps": list(self.steps), "interiors": list(self.interiors)}


def make_fence_path(steps, relation: dict[str, set[str]]) -> FencePath:
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
    return eval_path(e, ZERO)


def path_end(e: PathExpr) -> CylPoint:
    return eval_path(e, ONE)


# ---------------------------------------------------------------------------
# the compiled piecewise-affine table


@dataclass(frozen=True)
class PathTable:
    """A path as breakpoints ``0 = b_0 < ... < b_m = 1``, the point taken at
    each breakpoint, and one ``(x, c0, c1)`` per open piece
    ``(b_j, b_{j+1})``, on which the path is ``u -> (x, c0 + c1 u)``."""

    breaks: tuple[Fraction, ...]
    points: tuple[CylPoint, ...]
    pieces: tuple[tuple[str, Fraction, Fraction], ...]


def _constant_table(p: CylPoint) -> PathTable:
    return PathTable((ZERO, ONE), (p, p), ((p.x, p.alpha, ZERO),))


def _compile(e: PathExpr) -> PathTable:
    if isinstance(e, Const):
        return _constant_table(e.point)
    if isinstance(e, VerticalAffine):
        return PathTable((ZERO, ONE), (CylPoint(e.x, e.a0), CylPoint(e.x, e.a1)),
                         ((e.x, e.a0, e.a1 - e.a0),))
    if isinstance(e, HLift):
        steps, k = e.base.steps, len(e.base.steps) - 1
        if k == 0:
            return _constant_table(CylPoint(steps[0], e.level))
        return PathTable(tuple(Fraction(i, k) for i in range(k + 1)),
                         tuple(CylPoint(x, e.level) for x in steps),
                         tuple((x, e.level, ZERO) for x in e.base.interiors))
    if isinstance(e, Concat):
        # left-nested halving: part k of n runs over [lo, 2^-(n-1-k)];
        # each split keeps the left part's point
        breaks, points, pieces = [ZERO], [], []
        lo = ZERO
        for k, part in enumerate(e.parts):
            hi = Fraction(1, 2 ** (len(e.parts) - 1 - k))
            width = hi - lo
            table = path_table(part)
            breaks.extend(lo + width * b for b in table.breaks[1:])
            points.extend(table.points if k == 0 else table.points[1:])
            pieces.extend((x, c0 - c1 * lo / width, c1 / width)
                          for x, c0, c1 in table.pieces)
            lo = hi
        return PathTable(tuple(breaks), tuple(points), tuple(pieces))
    if isinstance(e, Reverse):
        table = path_table(e.inner)
        return PathTable(tuple(ONE - b for b in reversed(table.breaks)),
                         table.points[::-1],
                         tuple((x, c0 + c1, -c1) for x, c0, c1 in reversed(table.pieces)))
    if isinstance(e, HTransform):
        scale = ONE - e.t
        table = path_table(e.inner)
        return PathTable(table.breaks,
                         tuple(CylPoint(p.x, scale * p.alpha) for p in table.points),
                         tuple((x, scale * c0, scale * c1) for x, c0, c1 in table.pieces))
    if isinstance(e, ChiBoundary):
        return _compile(chi_boundary(e.rho, e.s, e.t, e.end))
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


def eval_path(e: PathExpr, u) -> CylPoint:
    u = unit(frac(u), "path parameter")
    table = path_table(e)
    j = bisect_left(table.breaks, u)
    if table.breaks[j] == u:
        return table.points[j]
    x, c0, c1 = table.pieces[j - 1]
    return CylPoint(x, c0 + c1 * u)


def chi_eval(rho: PathExpr, s, t, eta, x) -> CylPoint:
    """The square free homotopy value H(kappa(s,t)(x), rho(eta))."""
    return h_eval(kappa(s, t, x), eval_path(rho, frac(eta)))


def chi_boundary(rho: PathExpr, s, t, end: int) -> VerticalAffine:
    """The end-restriction of the square homotopy as a vertical path."""
    s, t = frac(s), frac(t)
    anchor = eval_path(rho, Fraction(end))
    return VerticalAffine(anchor.x, (ONE - s) * anchor.alpha, (ONE - t) * anchor.alpha)


def vertical_connector(y: str, alpha, beta) -> VerticalAffine:
    """The canonical path between two points on the same vertical fiber."""
    return VerticalAffine(y, frac(alpha), frac(beta))


# ---------------------------------------------------------------------------
# image containment, exact preimages and continuity


def path_in_open(e: PathExpr, open_set: CylinderOpen) -> bool:
    """Exact image containment of a path in a cylinder set."""
    return path_preimage(e, open_set) == make_unit_interval(0, 1, True, True)


def _piece_preimage(lo: Fraction, hi: Fraction, c0: Fraction, c1: Fraction,
                    fiber: IntervalSet) -> list[Interval]:
    """{u in (lo, hi) : c0 + c1 u in fiber}, one interval per fiber part."""
    if c1 == ZERO:
        return [Interval(lo, hi, False, False)] if fiber.contains(c0) else []
    out = []
    for part in fiber.parts:
        a, b = (part.lo - c0) / c1, (part.hi - c0) / c1
        a_closed, b_closed = part.lo_closed, part.hi_closed
        if c1 < ZERO:
            a, b, a_closed, b_closed = b, a, b_closed, a_closed
        if a <= lo:
            a, a_closed = lo, False
        if b >= hi:
            b, b_closed = hi, False
        if a < b or (a == b and a_closed and b_closed):
            out.append(Interval(a, b, a_closed, b_closed))
    return out


def path_preimage(e: PathExpr, open_set: CylinderOpen) -> IntervalSet:
    """Exact parameter set {u in [0,1] : e(u) in open_set}."""
    table = path_table(e)
    parts = [Interval(b, b, True, True) for b, p in zip(table.breaks, table.points)
             if open_set.fiber(p.x).contains(p.alpha)]
    for lo, hi, (x, c0, c1) in zip(table.breaks, table.breaks[1:], table.pieces):
        parts.extend(_piece_preimage(lo, hi, c0, c1, open_set.fiber(x)))
    return canonical(parts)


def path_preimage_open(e: PathExpr, target: SubbasisElem, topo: FuzzyTopology) -> bool:
    """True iff the exact preimage of the target is open in [0,1]."""
    preimage = path_preimage(e, subbasis_realize(target, topo))
    return is_open_in_unit(preimage)


def normalize_path(e: PathExpr) -> PathTable:
    """The canonical table of ``e``: its compiled table with every interior
    breakpoint that the path passes straight through merged away, so two
    paths have equal normal forms exactly when they are the same map on
    [0,1]."""
    table = path_table(e)
    kept = [0]
    for j, (x, c0, c1) in enumerate(table.pieces[1:], 1):
        p, level = table.points[j], c0 + c1 * table.breaks[j]
        if table.pieces[j - 1] != (x, c0, c1) or (p.x, p.alpha) != (x, level):
            kept.append(j)
    return PathTable(tuple(table.breaks[j] for j in kept) + (ONE,),
                     tuple(table.points[j] for j in kept) + (table.points[-1],),
                     tuple(table.pieces[j] for j in kept))


def pasting_failure(gamma: PathExpr, delta: PathExpr, s, t,
                    grid: Sequence[Fraction]) -> Optional[tuple[Fraction, Fraction]]:
    """The first grid pair (eta, x) at which the square homotopy of the
    concatenation of gamma and delta differs from the pasting of the
    squares of gamma (for eta <= 1/2) and delta (for eta > 1/2), or None."""
    combined = Concat((gamma, delta))
    half = Fraction(1, 2)
    for eta in grid:
        for x in grid:
            pasted = (chi_eval(gamma, s, t, 2 * eta, x) if eta <= half
                      else chi_eval(delta, s, t, 2 * eta - 1, x))
            if chi_eval(combined, s, t, eta, x) != pasted:
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
    kind = doc["type"]
    if kind == "const":
        return Const(CylPoint.from_json(doc["point"]))
    if kind == "vertical":
        return VerticalAffine(doc["x"], frac(doc["a0"]), frac(doc["a1"]))
    if kind == "hlift":
        base = doc["base"]
        return HLift(FencePath(tuple(base["steps"]), tuple(base["interiors"])),
                     frac(doc["level"]))
    if kind == "concat":
        return Concat(tuple(path_from_json(p) for p in doc["parts"]))
    if kind == "reverse":
        return Reverse(path_from_json(doc["inner"]))
    if kind == "h_transform":
        return HTransform(frac(doc["t"]), path_from_json(doc["inner"]))
    if kind == "chi_boundary":
        return ChiBoundary(path_from_json(doc["rho"]), frac(doc["s"]),
                           frac(doc["t"]), doc["end"])
    raise ValueError(f"unknown path expression type {kind!r}")
