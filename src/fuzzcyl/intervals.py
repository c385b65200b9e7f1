"""Canonical interval-set algebra with rational endpoints on the unit segment.

The working universe for membership levels is J = [0, 1): constructors for
level sets clip the point 1 away.  Parameter sets (homotopy times, path
parameters) live in the closed segment [0, 1] and are built with
``make_unit_interval``, which keeps a closed right endpoint at 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .rationals import ONE, ZERO, format_rational, frac, unit


@dataclass(frozen=True)
class Interval:
    """A nonempty rational interval inside [0, 1] with per-side flags."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        unit(self.lo, "interval endpoint")
        unit(self.hi, "interval endpoint")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError(f"degenerate interval must be closed on both sides: {self}")

    def contains(self, q: Fraction) -> bool:
        if q < self.lo or q > self.hi:
            return False
        if q == self.lo and not self.lo_closed:
            return False
        if q == self.hi and not self.hi_closed:
            return False
        return True

    def __repr__(self):
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{format_rational(self.lo)},{format_rational(self.hi)}{right}"

    def to_json(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "lo_open": not self.lo_closed,
            "hi_open": not self.hi_closed,
        }

    @staticmethod
    def from_json(doc: dict) -> "Interval":
        return Interval(
            frac(doc["lo"]), frac(doc["hi"]),
            not doc.get("lo_open", False), not doc.get("hi_open", False),
        )


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of intervals: disjoint, sorted, non-mergeable.

    Structural equality of canonical forms equals set equality.
    """

    parts: tuple[Interval, ...] = ()

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, q: Fraction) -> bool:
        return any(p.contains(q) for p in self.parts)

    def __repr__(self):
        if not self.parts:
            return "{}"
        return "{" + ", ".join(repr(p) for p in self.parts) + "}"

    def to_json(self) -> list:
        return [p.to_json() for p in self.parts]

    @staticmethod
    def from_json(doc: list) -> "IntervalSet":
        return canonical(Interval.from_json(d) for d in doc)


EMPTY_SET = IntervalSet(())
WHOLE_J = IntervalSet((Interval(ZERO, ONE, True, False),))


def _merge_two(a: Interval, b: Interval) -> Optional[Interval]:
    """Merge b into a when their union is an interval; a.lo <= b.lo assumed."""
    if b.lo > a.hi:
        return None
    if b.lo == a.hi and not (a.hi_closed or b.lo_closed):
        return None
    if (b.hi, b.hi_closed) <= (a.hi, a.hi_closed):
        hi, hi_closed = a.hi, a.hi_closed
    else:
        hi, hi_closed = b.hi, b.hi_closed
    lo_closed = a.lo_closed or (b.lo == a.lo and b.lo_closed)
    return Interval(a.lo, hi, lo_closed, hi_closed)


def canonical(intervals: Iterable[Interval]) -> IntervalSet:
    """Normalize an arbitrary finite collection of intervals."""
    items = sorted(intervals, key=lambda p: (p.lo, not p.lo_closed, p.hi, not p.hi_closed))
    merged: list[Interval] = []
    for part in items:
        if merged:
            joined = _merge_two(merged[-1], part)
            if joined is not None:
                merged[-1] = joined
                continue
        merged.append(part)
    return IntervalSet(tuple(merged))


def _build(lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool) -> IntervalSet:
    if lo > hi:
        return EMPTY_SET
    if lo == hi and not (lo_closed and hi_closed):
        return EMPTY_SET
    return IntervalSet((Interval(lo, hi, lo_closed, hi_closed),))


def make_interval(lo, hi, lo_closed: bool, hi_closed: bool) -> IntervalSet:
    """Canonical level set: the described interval intersected with J = [0,1)."""
    lo, hi = unit(frac(lo), "interval endpoint"), unit(frac(hi), "interval endpoint")
    if hi == ONE:
        hi_closed = False
    return _build(lo, hi, lo_closed, hi_closed)


def make_unit_interval(lo, hi, lo_closed: bool, hi_closed: bool) -> IntervalSet:
    """Canonical parameter set inside the closed segment [0,1]; 1 is kept."""
    lo, hi = unit(frac(lo), "interval endpoint"), unit(frac(hi), "interval endpoint")
    return _build(lo, hi, lo_closed, hi_closed)


def singleton(q) -> IntervalSet:
    q = frac(q)
    return _build(q, q, True, True)


def iv_union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return canonical(a.parts + b.parts)


def _intersect_parts(a: Interval, b: Interval) -> Optional[Interval]:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return None
    lo_closed = a.contains(lo) and b.contains(lo)
    hi_closed = a.contains(hi) and b.contains(hi)
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def iv_intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out = []
    for pa in a.parts:
        for pb in b.parts:
            part = _intersect_parts(pa, pb)
            if part is not None:
                out.append(part)
    return canonical(out)


def iv_complement_in_J(a: IntervalSet) -> IntervalSet:
    """Exact complement within [0,1); flags flip at shared endpoints."""
    gaps = []
    cursor, cursor_closed = ZERO, True
    for part in a.parts:
        gaps.extend(_build(cursor, part.lo, cursor_closed, not part.lo_closed).parts)
        cursor, cursor_closed = part.hi, not part.hi_closed
    if cursor < ONE:
        gaps.extend(_build(cursor, ONE, cursor_closed, False).parts)
    return canonical(gaps)


def iv_contains(a: IntervalSet, q) -> bool:
    return a.contains(unit(frac(q), "level", top_open=True))


def iv_supremum(a: IntervalSet) -> Optional[Fraction]:
    """Supremum of the set (attained or not); None for the empty set."""
    if not a.parts:
        return None
    return a.parts[-1].hi


def iv_subset(a: IntervalSet, b: IntervalSet) -> bool:
    return iv_intersect(a, b) == a


def is_open_in_unit(a: IntervalSet) -> bool:
    """True iff the set is open in [0,1] with the relative topology."""
    for part in a.parts:
        if part.lo_closed and part.lo != ZERO:
            return False
        if part.hi_closed and part.hi != ONE:
            return False
    return True
