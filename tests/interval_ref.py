"""The ``Fraction`` reference for interval sets, shared by the test modules.

The library keeps one interval encoding: integer boundary keys over a
denominator (``fuzzcyl.intervals.IntervalSet``).  The reference here is the
flag-based encoding the keys replaced.  An ``Interval`` is a nonempty
rational interval inside [0, 1] with a closed/open flag per side; a set is
a sorted tuple of disjoint, non-mergeable ``Interval``s, normalized by
sorting and merging neighbours with the flags compared at shared ends.
``build`` makes an ``IntervalSet`` straight from the den and keys of the
normalized intervals, and ``parts`` reads the intervals back from the
keys, so the reference shares no code with the library's normalizer
(``canonical``) or its JSON reader.  ``make_interval``,
``make_unit_interval`` and ``singleton`` are its ``Fraction`` front ends,
which tests build sets with: each is ``build`` of one ``interval``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from fuzzcyl.intervals import IntervalSet
from fuzzcyl.rationals import format_rational, frac

ZERO, ONE = Fraction(0), Fraction(1)


def show(lo, hi, lo_closed, hi_closed):
    left = "[" if lo_closed else "("
    right = "]" if hi_closed else ")"
    return f"{left}{format_rational(lo)},{format_rational(hi)}{right}"


@dataclass(frozen=True)
class Interval:
    """A nonempty rational interval inside [0, 1] with per-side flags."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        for q in (self.lo, self.hi):
            if not ZERO <= q <= ONE:
                raise ValueError(f"interval endpoint outside [0,1]: {q}")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self!r}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError(f"degenerate interval must be closed on both sides: {self!r}")

    def contains(self, q):
        if q < self.lo or q > self.hi:
            return False
        if q == self.lo and not self.lo_closed:
            return False
        if q == self.hi and not self.hi_closed:
            return False
        return True

    def __repr__(self):
        return show(self.lo, self.hi, self.lo_closed, self.hi_closed)

    def to_json(self):
        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi),
                "lo_open": not self.lo_closed, "hi_open": not self.hi_closed}

    @staticmethod
    def from_json(doc):
        """One JSON interval: an object with "p/q" or "p" strings or JSON
        integers for the ends, optional boolean ``lo_open`` and ``hi_open``
        flags, then the checks above, in the library's order and with its
        messages."""
        if not isinstance(doc, dict):
            raise TypeError("interval must be an object")
        for key in ("lo", "hi"):
            if key not in doc:
                raise ValueError(f"interval has no {key!r} field")
        lo, hi = frac(doc["lo"]), frac(doc["hi"])
        lo_open, hi_open = doc.get("lo_open", False), doc.get("hi_open", False)
        if type(lo_open) is not bool or type(hi_open) is not bool:
            raise TypeError("interval flags lo_open and hi_open must be booleans")
        return Interval(lo, hi, not lo_open, not hi_open)


def interval(lo, hi, lo_closed, hi_closed):
    """The described interval as a tuple of at most one ``Interval``:
    empty when lo > hi, or lo = hi with an open side."""
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return ()
    return (Interval(lo, hi, lo_closed, hi_closed),)


def merge_two(a, b):
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


def normalize(intervals):
    """The canonical intervals of any finite collection: sorted, merged."""
    items = sorted(intervals, key=lambda p: (p.lo, not p.lo_closed, p.hi, not p.hi_closed))
    merged = []
    for part in items:
        if merged:
            joined = merge_two(merged[-1], part)
            if joined is not None:
                merged[-1] = joined
                continue
        merged.append(part)
    return tuple(merged)


def _keys(p, den):
    """The key pair of one interval over den, a multiple of its ends'
    denominators: n/den has the key 2n just before it and 2n+1 after it."""
    return (2 * p.lo.numerator * (den // p.lo.denominator) + (not p.lo_closed),
            2 * p.hi.numerator * (den // p.hi.denominator) + p.hi_closed)


def key_pairs(intervals):
    """``(den, pairs)``: the key pair of each interval, in the given order
    and not merged, over the lcm of the ends' denominators."""
    intervals = list(intervals)
    den = lcm(*(q.denominator for p in intervals for q in (p.lo, p.hi)))
    return den, [_keys(p, den) for p in intervals]


def build(intervals):
    """The ``IntervalSet`` of any finite collection of intervals, from the
    den and keys of their normalized form: the lcm of the reduced ends'
    denominators is the least."""
    den, pairs = key_pairs(normalize(intervals))
    return IntervalSet(den, tuple(k for pair in pairs for k in pair))


def make_unit_interval(lo, hi, lo_closed, hi_closed):
    """The parameter set of the described interval in [0, 1], for values
    that ``frac`` reads."""
    return build(interval(frac(lo), frac(hi), lo_closed, hi_closed))


def make_interval(lo, hi, lo_closed, hi_closed):
    """The level set of the described interval: its part in J = [0, 1)."""
    hi = frac(hi)
    return make_unit_interval(lo, hi, lo_closed, hi_closed and hi != ONE)


def singleton(q):
    return make_unit_interval(q, q, True, True)


def parts(s):
    """The canonical ``Interval``s of a set, read from its keys."""
    k, den = s.keys, s.den
    return tuple(Interval(Fraction(a >> 1, den), Fraction(b >> 1, den), not a & 1, bool(b & 1))
                 for a, b in zip(k[::2], k[1::2]))


def to_json(s):
    return [p.to_json() for p in parts(s)]


def from_json(doc):
    return build(Interval.from_json(d) for d in doc)
