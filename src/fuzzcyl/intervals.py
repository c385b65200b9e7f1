"""Canonical interval-set algebra with rational endpoints on the unit segment.

The working universe for membership levels is J = [0, 1), and parameter
sets (homotopy times, path parameters) live in the closed segment [0, 1].
Both are built from integer ends by ``iv_span``, with one flag per end, and
only a parameter set may be closed at 1.

An ``IntervalSet`` is integer boundary keys over one positive denominator
``den``: the value n/den has the key 2n just before it and 2n+1 just after
it, so a closed lower or open upper end is 2n and an open lower or closed
upper end 2n+1.  ``keys`` is a strictly increasing, even-length tuple of
half-open [start, end) pairs, and J is [0, 2·den).  It is the only interval
type: ``canonical`` normalizes any finite collection of key pairs over one
denominator (sorted, merged, reduced) and is the module's only
sort-and-merge.  The JSON reader checks each interval's ends and flags in
integers and hands its key pairs to ``canonical``, and the writer and
``repr`` format the ends from the keys.  The union of any number of sets
is ``canonical`` of their key pairs over the lcm of their denominators,
a subset is a set whose union with the other is the other, and the image
under a one-pair scale set is ``canonical`` of the scaled pairs.  A span
[lo, hi)/den is also read unbuilt, from its integer ends: its image under
the factors 1 - u of a time set lies in another span when its two scaled
ends do (``iv_scaled_spans_within``, one span per element).
Intersection is one two-pointer pass over a common denominator, the
complement in J toggles against [0, 2·den), the preimage of a set under
an affine map u -> (c0 + c1·u)/d maps each key and clips to [0,1]
(``iv_preimage``; the reflection q -> 1 - q is the one with c0 = d = 1
and c1 = -1), membership is one bisection, and the levels k/N of a grid
are filled pair by pair (``iv_grid``).  Results are reduced to the least
denominator, so structural equality is set equality.  No other module
reads or writes keys.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

from .rationals import format_ratio, ratio, required_field, unit


def _show(lo: str, hi: str, lo_open: bool, hi_open: bool) -> str:
    return f"{'(' if lo_open else '['}{lo},{hi}{')' if hi_open else ']'}"


def _read_interval(doc: dict, where: str) -> tuple[int, int, int, int, bool, bool]:
    """The checked (lp, lq, hp, hq, lo_open, hi_open) of the JSON interval
    ``where`` from lp/lq to hp/hq: an object, "p/q" or "p" strings or JSON
    integers for the ends (read by ``ratio``), optional boolean ``lo_open``
    and ``hi_open`` flags, both ends in [0, 1], lo <= hi, and a degenerate
    interval only when closed, all compared in integers."""
    lp, lq = ratio(required_field(doc, "lo", where))
    hp, hq = ratio(required_field(doc, "hi", where))
    lo_open, hi_open = doc.get("lo_open", False), doc.get("hi_open", False)
    if type(lo_open) is not bool or type(hi_open) is not bool:
        raise TypeError("interval flags lo_open and hi_open must be booleans")
    for p, q in ((lp, lq), (hp, hq)):
        if not 0 <= p <= q:
            unit(Fraction(p, q), "interval endpoint")
    a, b = lp * hq, hp * lq
    if a > b or a == b and (lo_open or hi_open):
        shown = _show(format_ratio(lp, lq), format_ratio(hp, hq), lo_open, hi_open)
        if a > b:
            raise ValueError(f"empty interval: {shown}")
        raise ValueError(f"degenerate interval must be closed on both sides: {shown}")
    return lp, lq, hp, hq, lo_open, hi_open


@dataclass(frozen=True, repr=False)
class IntervalSet:
    """Canonical finite union of intervals, as boundary keys (see above).

    ``keys`` must be canonical over the least ``den``: build sets with
    ``canonical``, ``iv_span`` or the operations below, never from raw keys.
    """

    den: int
    keys: tuple[int, ...]

    def is_empty(self) -> bool:
        return not self.keys

    def contains(self, q: Fraction) -> bool:
        return self.holds(q.numerator, q.denominator)

    def holds(self, n: int, d: int) -> bool:
        """``contains(n/d)`` for integers with d > 0, n/d not reduced."""
        m, r = divmod(n * self.den, d)
        return bisect_right(self.keys, 2 * m + (r > 0)) % 2 == 1

    def __repr__(self):
        k, den = self.keys, self.den
        return "{" + ", ".join(_show(format_ratio(s >> 1, den), format_ratio(e >> 1, den),
                                     s & 1, not e & 1)
                               for s, e in zip(k[::2], k[1::2])) + "}"

    def to_json(self) -> list:
        """Each canonical interval's ends formatted from its keys, and its flags."""
        k, den = self.keys, self.den
        return [{"lo": format_ratio(s >> 1, den), "hi": format_ratio(e >> 1, den),
                 "lo_open": bool(s & 1), "hi_open": not e & 1}
                for s, e in zip(k[::2], k[1::2])]

    @staticmethod
    def from_json(doc: list, where: str) -> "IntervalSet":
        """The canonical set of a JSON array of intervals, each read and
        checked by ``_read_interval`` and named ``where`` in its messages,
        as key pairs over the lcm of the ends' denominators."""
        if not isinstance(doc, list):
            raise TypeError("interval set must be an array of intervals")
        ends = [_read_interval(d, where) for d in doc]
        den = lcm(*(q for lp, lq, hp, hq, _, _ in ends for q in (lq, hq)))
        return canonical(den, [(2 * lp * (den // lq) + lo_open,
                                2 * hp * (den // hq) + (not hi_open))
                               for lp, lq, hp, hq, lo_open, hi_open in ends])


def _reduced(den: int, keys: list[int]) -> IntervalSet:
    """The set over its least denominator: all numerators divided by their gcd."""
    g = gcd(den, *[k >> 1 for k in keys])
    if g > 1:
        den //= g
        keys = [2 * ((k >> 1) // g) + (k & 1) for k in keys]
    return IntervalSet(den, tuple(keys))


def _common(a: IntervalSet, b: IntervalSet):
    """Both key tuples over the least common denominator."""
    if a.den == b.den:
        return a.den, a.keys, b.keys
    den = lcm(a.den, b.den)
    return (den, *([2 * (k >> 1) * (den // s.den) + (k & 1) for k in s.keys]
                   for s in (a, b)))


EMPTY_SET = IntervalSet(1, ())


def canonical(den: int, pairs: Iterable[tuple[int, int]]) -> IntervalSet:
    """The canonical set of any finite collection of key pairs [s, e) over
    ``den``: the pairs sorted, each with s < e joined to the last kept one
    when it starts at or before that one's end, the others (empty) dropped,
    and the result reduced.  It is the one sort-and-merge of the module."""
    out: list[int] = []
    for s, e in sorted(pairs):
        if s >= e:
            continue
        if out and s <= out[-1]:
            out[-1] = max(out[-1], e)
        else:
            out += (s, e)
    return _reduced(den, out)


def iv_span(den: int, lo: int, hi: int, lo_open: bool, hi_closed: bool) -> IntervalSet:
    """The set from lo/den to hi/den, for integer numerators, reduced: each
    flag is its end key's parity, so the keys are 2·lo + lo_open and
    2·hi + hi_closed, and the set is empty when the first is not below the
    second.  It is the one constructor of a set from its ends."""
    s, e = 2 * lo + lo_open, 2 * hi + hi_closed
    return _reduced(den, [s, e]) if s < e else EMPTY_SET


def span_holds(den: int, lo: int, hi: int, lo_open: bool, n: int, d: int) -> bool:
    """``iv_span(den, lo, hi, lo_open, False).holds(n, d)``, d > 0, with no
    span built: lo/den < n/d (<= when closed) < hi/den, never true of an
    empty span."""
    v = n * den
    return (v > lo * d if lo_open else v >= lo * d) and v < hi * d


def iv_union(*sets: IntervalSet) -> IntervalSet:
    """The union of any number of sets: ``canonical`` of all their key pairs
    over the lcm of their denominators.  Empty sets are dropped, and a lone
    set is returned as it is."""
    sets = [s for s in sets if s.keys]
    if len(sets) < 2:
        return sets[0] if sets else EMPTY_SET
    den = lcm(*(s.den for s in sets))
    keys = [2 * (k >> 1) * (den // s.den) + (k & 1) for s in sets for k in s.keys]
    return canonical(den, zip(keys[::2], keys[1::2]))


def iv_intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    if not (a.keys and b.keys):
        return EMPTY_SET
    den, x, y = _common(a, b)
    out: list[int] = []
    i = j = 0
    while i < len(x) and j < len(y):
        s, e = max(x[i], y[j]), min(x[i + 1], y[j + 1])
        if s < e:
            out += (s, e)
        if x[i + 1] < y[j + 1]:
            i += 2
        else:
            j += 2
    return _reduced(den, out)


def iv_complement_in_J(a: IntervalSet) -> IntervalSet:
    """Exact complement within [0,1): the keys toggled against [0, 2·den),
    after dropping the point 1 of a parameter set.  Adding or dropping the
    numerators 0 and den leaves the gcd with den at 1: no reduction."""
    top = 2 * a.den
    keys = list(a.keys)
    if keys and keys[-1] > top:
        keys[-1] = top
        if keys[-2] == top:
            del keys[-2:]
    keys = keys[1:] if keys[:1] == [0] else [0] + keys
    keys = keys[:-1] if keys[-1:] == [top] else keys + [top]
    return IntervalSet(a.den, tuple(keys))


def iv_preimage(a: IntervalSet, c0: int, c1: int, d: int) -> IntervalSet:
    """The parameters u in [0,1] with (c0 + c1·u)/d in a, for integers
    c1 != 0 and d > 0, over g = |c1|·den.  The level n/den is reached at
    u = (n·d - c0·den)/(c1·den), so the key 2n + f maps to
    2·(n·d - c0·den) + f, or, when c1 < 0, to 1 minus that with the pairs
    in reverse order (just above a level is just below its parameter).
    Each pair is clipped to the keys [0, 2g + 1) of [0,1]; the map keeps
    the pairs apart and in order, so no sort or merge is needed."""
    g, shift = abs(c1) * a.den, c0 * a.den
    mapped = [2 * ((k >> 1) * d - shift) + (k & 1) for k in a.keys]
    if c1 < 0:
        mapped = [1 - k for k in reversed(mapped)]
    clipped = [(max(s, 0), min(e, 2 * g + 1)) for s, e in zip(mapped[::2], mapped[1::2])]
    return _reduced(g, [k for s, e in clipped if s < e for k in (s, e)])


def _scaled_pair(s: int, e: int, cs: int, ce: int) -> tuple[int, int]:
    """The key pair of the image of one pair [s, e) under the one-pair scale
    set with keys (cs, ce), over the product of their denominators, by the
    flag rules of ``iv_scale``."""
    lo, hi = (cs >> 1) * (s >> 1), (ce >> 1) * (e >> 1)
    if hi == 0:
        return 0, 1
    lo_open = (s | cs) & 1 if lo else cs != 0 and s != 0
    return 2 * lo + lo_open, 2 * hi + (e & ce & 1)


def iv_scale(a: IntervalSet, c: IntervalSet) -> IntervalSet:
    """Exact image {c·v : c in C, v in a} under a nonnegative one-pair scale
    set C = [p1, p2]/dc: the image of each pair over dc·den, handed to
    ``canonical``.  Numerators u <= v map to p1·u and p2·v.  The high end
    is closed when both factors' are; the low end likewise, except at 0,
    which it holds when either factor attains 0.  A pair whose high end is
    0 maps to {0}."""
    cs, ce = c.keys
    k = a.keys
    return canonical(c.den * a.den, [_scaled_pair(s, e, cs, ce)
                                     for s, e in zip(k[::2], k[1::2])])


def iv_scaled_spans_within(t: IntervalSet, a: tuple, b: tuple) -> bool:
    """Whether over every element the span of ``a``, scaled by the factors
    1 - u for u in the one-pair time set t, lies in the span of ``b``.  Each
    of a and b is the ends (den, lo, lo_open, his) of one span per element,
    ``iv_span(den, lo, his[i], lo_open, False)``, and no span is built.  The
    factors are t reflected by u -> 1 - u (``iv_preimage(t, 1, -1, 1)``,
    unreduced), an empty span's image is empty, and a nonempty span's is the
    one pair that ``_scaled_pair`` gives over t.den·den, which lies in b's
    span exactly when that span is nonempty and holds both of its ends."""
    ts, te = t.keys
    cs, ce = 2 * t.den + 1 - te, 2 * t.den + 1 - ts
    den, lo, lo_open, his = a
    bden, blo, blo_open, bhis = b
    m, mb = bden, t.den * den  # both sides over t.den·den·bden
    s, bs = 2 * lo + lo_open, 2 * blo * mb + blo_open
    for hi, bhi in zip(his, bhis):
        if hi > lo:
            ls, le = _scaled_pair(s, 2 * hi, cs, ce)
            if not (bhi > blo and bs <= 2 * (ls >> 1) * m + (ls & 1)
                    and 2 * (le >> 1) * m + (le & 1) <= 2 * bhi * mb):
                return False
    return True


def iv_grid(a: IntervalSet, resolution: int) -> tuple[bool, ...]:
    """Membership of each level k/N, k = 0 .. N-1, in integers, one key
    pair at a time.  The first cell after the key 2m, just before m/den, is
    ceil(m·N/den), and after the key 2m+1, just after m/den, it is
    floor(m·N/den) + 1; both are ceil((m·N + (key & 1))/den), clamped to
    N.  A pair [s, e) holds the cells from s's first cell up to e's."""
    n = resolution
    den = a.den
    firsts = [min(n, -(-((key >> 1) * n + (key & 1)) // den)) for key in a.keys]
    row = [False] * n
    for lo, hi in zip(firsts[::2], firsts[1::2]):
        row[lo:hi] = [True] * (hi - lo)
    return tuple(row)


def iv_supremum(a: IntervalSet) -> Optional[Fraction]:
    """Supremum of the set (attained or not); None for the empty set."""
    return Fraction(a.keys[-1] >> 1, a.den) if a.keys else None


def is_down_set(a: IntervalSet) -> bool:
    """True iff a is [0, q) for some q > 0: one pair, closed at 0, open above."""
    return len(a.keys) == 2 and a.keys[0] == 0 and not a.keys[1] & 1


def iv_subset(a: IntervalSet, b: IntervalSet) -> bool:
    """a lies in b exactly when their union is b: sets are canonical, so
    equality is set equality."""
    return iv_union(b, a) == b


def is_open_in_unit(a: IntervalSet) -> bool:
    """True iff open in [0,1]: each closed lower end is 0, each closed upper end 1."""
    k = a.keys
    return (all(s & 1 or s == 0 for s in k[::2])
            and all(not e & 1 or e == 2 * a.den + 1 for e in k[1::2]))
