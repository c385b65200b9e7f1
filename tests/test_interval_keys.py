"""Differential test of the boundary-key interval algebra.

The reference below is the flag-based algebra that the keys replaced, on
the ``Interval``s of ``interval_ref``: a set is a sorted tuple of them,
normalized by sorting and merging neighbours, with open/closed flags
compared at shared endpoints.  On seeded random sets with mixed
denominators, including parameter sets that contain 1, the key algebra
must give the same canonical intervals (``canonical`` of the unmerged key
pairs), JSON, union of two and of three sets, intersection, complement,
subset, membership, supremum and openness.
The preimage of a set under an affine map u -> (c0 + c1·u)/d is checked
against the ``Fraction`` statement of each canonical part's preimage and
against membership of the mapped probes; the reflection q -> 1 - q of
parameter sets, the preimage with c0 = d = 1 and c1 = -1, against the
``Fraction`` reflection of each canonical part.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from interval_ref import Interval, build, interval, key_pairs, normalize, parts

from fuzzcyl.intervals import (
    EMPTY_SET,
    IntervalSet,
    canonical,
    is_open_in_unit,
    iv_complement_in_J,
    iv_intersect,
    iv_preimage,
    iv_span,
    iv_subset,
    iv_supremum,
    iv_union,
)

ZERO, ONE = F(0), F(1)

# ---------------------------------------------------------------------------
# reference: the flag algebra on tuples of intervals


def ref_intersect_parts(a, b):
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return None
    lo_closed = a.contains(lo) and b.contains(lo)
    hi_closed = a.contains(hi) and b.contains(hi)
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def ref_union(a, b):
    return normalize(a + b)


def ref_intersect(a, b):
    out = [ref_intersect_parts(pa, pb) for pa in a for pb in b]
    return normalize(p for p in out if p is not None)


def ref_complement(a):
    gaps = []
    cursor, cursor_closed = ZERO, True
    for part in a:
        gaps.extend(interval(cursor, part.lo, cursor_closed, not part.lo_closed))
        cursor, cursor_closed = part.hi, not part.hi_closed
    if cursor < ONE:
        gaps.extend(interval(cursor, ONE, cursor_closed, False))
    return normalize(gaps)


def ref_contains(a, q):
    return any(p.contains(q) for p in a)


def ref_is_open(a):
    return all(not (p.lo_closed and p.lo != ZERO) and not (p.hi_closed and p.hi != ONE)
               for p in a)


# ---------------------------------------------------------------------------
# random sets

DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 32, 35)


def random_value(rng):
    den = rng.choice(DENOMINATORS)
    return F(rng.randint(0, den), den)


def random_interval(rng, unit_segment):
    """Endpoints in [0,1]; a level-set interval (not unit_segment) leaves 1 out."""
    lo, hi = sorted((random_value(rng), random_value(rng)))
    lo_closed, hi_closed = rng.random() < 0.5, rng.random() < 0.5
    if lo == hi:
        lo_closed = hi_closed = True
        if hi == ONE and not unit_segment:
            lo = hi = F(1, 2)
    if hi == ONE and not unit_segment:
        hi_closed = False
    return Interval(lo, hi, lo_closed, hi_closed)


def random_parts(rng):
    unit_segment = rng.random() < 0.3
    return [random_interval(rng, unit_segment) for _ in range(rng.randint(0, 4))]


def from_pairs(intervals):
    """``canonical`` of the intervals' unmerged key pairs."""
    return canonical(*key_pairs(intervals))


def probes(*sets):
    """0, 1, every endpoint of the sets and every midpoint between two
    consecutive ones: membership is constant between endpoints."""
    ends = sorted({ZERO, ONE} | {q for s in sets for p in s for q in (p.lo, p.hi)})
    return ends + [(u + v) / 2 for u, v in zip(ends, ends[1:])]


@pytest.mark.parametrize("seed", range(4))
def test_key_algebra_matches_flag_algebra(seed):
    rng = random.Random(8_000 + seed)
    # the third set of the n-ary union, from its own stream so the pairs
    # (a, b) are the same draws as before it was added
    third = random.Random(8_100 + seed)
    three_nonempty = 0
    for _ in range(1000):
        pa, pb = random_parts(rng), random_parts(rng)
        pc = random_parts(third)
        a, b = from_pairs(pa), from_pairs(pb)
        ra, rb = normalize(pa), normalize(pb)
        assert parts(a) == ra and parts(b) == rb
        same_set(a, build(pa))
        assert a.to_json() == [p.to_json() for p in ra]
        assert IntervalSet.from_json(a.to_json(), "set") == a
        assert parts(iv_union(a, b)) == ref_union(ra, rb)
        assert parts(iv_union(a, b, from_pairs(pc))) == normalize(pa + pb + pc)
        three_nonempty += bool(pa and pb and pc)
        assert parts(iv_intersect(a, b)) == ref_intersect(ra, rb)
        assert parts(iv_complement_in_J(a)) == ref_complement(ra)
        assert iv_subset(a, b) == (ref_intersect(ra, rb) == ra)
        assert iv_subset(b, a) == (ref_intersect(ra, rb) == rb)
        assert iv_supremum(a) == (ra[-1].hi if ra else None)
        assert is_open_in_unit(a) == ref_is_open(ra)
        for q in probes(ra, rb):
            assert a.contains(q) == ref_contains(ra, q), (ra, q)
            assert b.contains(q) == ref_contains(rb, q), (rb, q)
    # about half the draws (each set is empty one time in five) union
    # three nonempty sets, so a union that drops its later sets shows
    assert three_nonempty >= 400


@pytest.mark.parametrize("seed", range(2))
def test_constructors_match_flag_algebra(seed):
    """``iv_span`` of two random values with random flags, their numerators
    over a random multiple of the least common denominator."""
    rng = random.Random(9_000 + seed)
    for _ in range(500):
        lo, hi = random_value(rng), random_value(rng)
        lo_closed, hi_closed = rng.random() < 0.5, rng.random() < 0.5
        den = lcm(lo.denominator, hi.denominator) * rng.randint(1, 3)
        got = iv_span(den, lo.numerator * (den // lo.denominator),
                      hi.numerator * (den // hi.denominator), not lo_closed, hi_closed)
        assert parts(got) == interval(lo, hi, lo_closed, hi_closed)


def same_set(*sets):
    first = sets[0]
    for s in sets[1:]:
        assert s == first
        assert (s.den, s.keys, hash(s)) == (first.den, first.keys, hash(first))


def test_equal_sets_built_differently_share_keys():
    rng = random.Random(7_777)
    for _ in range(300):
        given = random_parts(rng)
        direct = from_pairs(given)
        shuffled = list(given)
        rng.shuffle(shuffled)
        chained = EMPTY_SET
        for p in given:
            chained = iv_union(chained, from_pairs([p]))
        # split each interval at an interior point into two touching halves
        halves = []
        for p in given:
            if p.lo < p.hi:
                mid = (p.lo + p.hi) / 2
                halves += [Interval(p.lo, mid, p.lo_closed, True),
                           Interval(mid, p.hi, False, p.hi_closed)]
            else:
                halves.append(p)
        same_set(direct, build(given), from_pairs(shuffled), chained, from_pairs(halves),
                 iv_union(*(from_pairs([p]) for p in shuffled)),
                 iv_union(*(from_pairs([p]) for p in halves)),
                 IntervalSet.from_json(direct.to_json(), "set"),
                 iv_union(direct, direct), iv_intersect(direct, direct))
        if direct.contains(ONE):
            continue
        same_set(direct, iv_complement_in_J(iv_complement_in_J(direct)))


def test_least_denominator():
    # [0,1/2) and [1/2,1) each need 2; their union [0,1) needs 1
    joined = iv_union(iv_span(2, 0, 1, False, False), iv_span(2, 1, 2, False, False))
    assert (joined.den, joined.keys) == (1, (0, 2))
    assert EMPTY_SET.den == 1 and EMPTY_SET.keys == ()
    # (1/3, 1/2] over 6: the open end 1/3 is 2*2+1, the closed end 1/2 is 2*3+1
    s = iv_span(6, 2, 3, True, True)
    assert (s.den, s.keys) == (6, (5, 7))
    assert iv_span(4, 4, 4, False, True).keys == (2, 3)


# ---------------------------------------------------------------------------
# preimages under affine maps, and the reflection of parameter sets


def ref_reflect(intervals):
    """{1 - q : q in intervals}, part by part on ``Fraction``s: the ends
    swap and take each other's flags."""
    return normalize(Interval(ONE - p.hi, ONE - p.lo, p.hi_closed, p.lo_closed)
                     for p in intervals)


def reflect_cases(rng):
    """Random parameter sets, some holding 1; every flag pair on a random
    interval and on intervals ending at 0, at 1 or both; {0}, {1} and a
    point inside."""
    cases = [random_parts(rng) + [random_interval(rng, True)]
             for _ in range(rng.randint(1, 4))]
    lo, hi = sorted(rng.sample([F(k, 36) for k in range(1, 36)], 2))
    for lo_closed in (True, False):
        for hi_closed in (True, False):
            cases += [[Interval(a, b, lo_closed, hi_closed)]
                      for a, b in ((lo, hi), (ZERO, hi), (lo, ONE), (ZERO, ONE))]
    cases += [[Interval(q, q, True, True)] for q in (ZERO, ONE, random_value(rng))]
    return cases


def reflect(a):
    return iv_preimage(a, 1, -1, 1)


def test_reflection_preimage_matches_fraction_reflection():
    rng = random.Random(9_700)
    seen = {"holds 0": 0, "holds 1": 0, "several pairs": 0}
    for _ in range(300):
        for case in reflect_cases(rng):
            a = build(case)
            got = reflect(a)
            expect = ref_reflect(parts(a))
            assert parts(got) == expect, (a, got)
            # the least denominator: the same den and keys as the set built
            # from the reflected parts, and den is a's
            same_set(got, build(expect))
            assert got.den == a.den
            same_set(reflect(got), a)
            seen["holds 0"] += a.contains(ZERO)
            seen["holds 1"] += a.contains(ONE)
            seen["several pairs"] += len(a.keys) > 2
    assert reflect(EMPTY_SET) == EMPTY_SET
    assert min(seen.values()) >= 150, seen


def ref_preimage_part(p, c0, c1, d):
    """{u in [0,1] : (c0 + c1·u)/d in p} on ``Fraction``s, as raw bounds
    and flags before the clip to [0,1], then clipped: a negative slope
    swaps the ends and their flags."""
    lo, hi = (p.lo * d - c0) / c1, (p.hi * d - c0) / c1
    lo_closed, hi_closed = p.lo_closed, p.hi_closed
    if c1 < 0:
        lo, hi, lo_closed, hi_closed = hi, lo, hi_closed, lo_closed
    raw = lo, hi
    if lo < ZERO:
        lo, lo_closed = ZERO, True
    if hi > ONE:
        hi, hi_closed = ONE, True
    return raw, interval(lo, hi, lo_closed, hi_closed)


# slopes of both signs, with |c1| = 1 and |c1| > 1, and denominators d
SLOPES = (-5, -2, -1, 1, 2, 3)
SCALES = (1, 2, 3, 7)


def test_iv_preimage_matches_fraction_preimage():
    """On random sets (mixed flags, closed points, the empty set, sets
    holding 1) and random maps whose level range [c0/d, (c0 + c1)/d] may
    cover, overlap or miss [0,1], the preimage has the parts of the
    ``Fraction`` statement over the least denominator, and it holds u
    exactly when a holds u's level at every cut (0, 1 and each end of a
    mapped into [0,1]) and between each two, which decides the set."""
    rng = random.Random(9_800)
    seen = {"clips at 0": 0, "clips at 1": 0, "misses [0,1]": 0, "closed point": 0,
            "empty set": 0, "several pairs": 0}
    for _ in range(4000):
        a = from_pairs(random_parts(rng))
        c1, d = rng.choice(SLOPES), rng.choice(SCALES)
        c0 = rng.randint(-abs(c1) - d, abs(c1) + d)
        got = iv_preimage(a, c0, c1, d)
        raws, expect = [], []
        for p in parts(a):
            raw, part = ref_preimage_part(p, c0, c1, d)
            raws.append(raw)
            expect += part
        expect = normalize(expect)
        assert parts(got) == expect, (a, c0, c1, d, got)
        same_set(got, build(expect))
        cuts = sorted({ZERO, ONE} | {u for raw in raws for u in raw if ZERO <= u <= ONE})
        for u in cuts + [(v + w) / 2 for v, w in zip(cuts, cuts[1:])]:
            assert got.contains(u) == a.contains((c0 + c1 * u) / d), (a, c0, c1, d, u)
        seen["clips at 0"] += any(lo < ZERO <= hi for lo, hi in raws)
        seen["clips at 1"] += any(lo <= ONE < hi for lo, hi in raws)
        seen["misses [0,1]"] += bool(raws) and not expect
        seen["closed point"] += any(p.lo == p.hi for p in parts(a) + expect)
        seen["empty set"] += not raws
        seen["several pairs"] += len(expect) > 1
    assert min(seen.values()) >= 100, seen
