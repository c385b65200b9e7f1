from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from interval_ref import Interval, build, interval, make_interval, make_unit_interval, parts

from fuzzcyl.intervals import (
    EMPTY_SET,
    canonical,
    is_open_in_unit,
    iv_complement_in_J,
    iv_intersect,
    iv_span,
    iv_subset,
    iv_supremum,
    iv_union,
    span_holds,
)

F = Fraction


def iset(*descriptions):
    out = EMPTY_SET
    for lo, hi, lc, hc in descriptions:
        out = iv_union(out, make_interval(lo, hi, lc, hc))
    return out


def test_make_interval_degenerate_open_is_empty():
    assert make_interval(F(1, 3), F(1, 3), False, False) == EMPTY_SET


def test_make_interval_basic():
    s = make_interval(0, F(1, 3), True, False)
    assert parts(s) == (Interval(F(0), F(1, 3), True, False),)


def test_make_interval_clips_closed_one():
    s = make_interval(F(1, 3), 1, False, True)
    assert parts(s) == (Interval(F(1, 3), F(1), False, False),)


def test_make_unit_interval_keeps_closed_one():
    s = make_unit_interval(F(1, 2), 1, False, True)
    assert parts(s) == (Interval(F(1, 2), F(1), False, True),)


def test_iv_span_matches_the_flag_reference():
    """Every span with den 1 to 12, lo and hi 0 to den and both flags is
    ``build`` of the reference interval from lo/den to hi/den, open below
    when ``lo_open`` and closed above when ``hi_closed``.  Empty sets,
    closed points and sets that hold 1 each occur."""
    seen = {"empty": 0, "closed point": 0, "holds 1": 0}
    for den in range(1, 13):
        for lo in range(den + 1):
            for hi in range(den + 1):
                for lo_open in (False, True):
                    for hi_closed in (False, True):
                        got = iv_span(den, lo, hi, lo_open, hi_closed)
                        want = build(interval(F(lo, den), F(hi, den), not lo_open, hi_closed))
                        assert got == want, (den, lo, hi, lo_open, hi_closed)
                        seen["empty"] += got.is_empty()
                        seen["closed point"] += lo == hi and not got.is_empty()
                        seen["holds 1"] += got.contains(F(1))
    assert min(seen.values()) > 0, seen


def test_span_holds_matches_the_built_span():
    """``span_holds`` decides ``iv_span(..., False).holds(n, d)`` on every
    span with den 1 to 6, lo 0 to den and hi from lo - 2 to den (so empty
    spans too), either low flag, at every unreduced level n/d with d <= 12,
    0 <= n <= d: each outcome many times, and levels on an open low end and
    on the high end of a nonempty span among them."""
    seen = {True: 0, False: 0, "open low end": 0, "high end": 0}
    for den in range(1, 7):
        for lo in range(den + 1):
            for hi in range(lo - 2, den + 1):
                for lo_open in (False, True):
                    span = iv_span(den, lo, hi, lo_open, False)
                    for d in range(1, 13):
                        for n in range(d + 1):
                            got = span_holds(den, lo, hi, lo_open, n, d)
                            assert got == span.holds(n, d), (den, lo, hi, lo_open, n, d)
                            seen[got] += 1
                            if hi > lo:
                                seen["open low end"] += lo_open and n * den == lo * d
                                seen["high end"] += n * den == hi * d
    assert min(seen[True], seen[False]) >= 3_500, seen
    assert min(seen["open low end"], seen["high end"]) >= 300, seen


def test_union_adjacent_merge():
    a = make_interval(0, F(1, 3), True, False)
    b = make_interval(F(1, 3), 1, True, False)
    assert iv_union(a, b) == make_interval(0, 1, True, False)


def test_union_identity():
    a = iset((0, F(1, 4), True, False), (F(1, 2), F(3, 4), False, False))
    assert iv_union(EMPTY_SET, a) == a


def test_union_disjoint_preserved():
    a = make_interval(0, F(1, 4), True, False)
    b = make_interval(F(1, 2), F(3, 4), False, False)
    assert len(parts(iv_union(a, b))) == 2


def test_intersect_endpoints():
    a = make_interval(0, F(1, 2), True, False)
    b = make_interval(F(1, 3), 1, True, False)
    assert iv_intersect(a, b) == make_interval(F(1, 3), F(1, 2), True, False)


def test_intersect_touching_open():
    a = make_interval(0, F(1, 2), True, False)
    b = make_interval(F(1, 2), 1, False, False)
    assert iv_intersect(a, b) == EMPTY_SET


def test_intersect_mixed_flags_with_grid_oracle():
    a = make_interval(0, F(5, 12), True, False)
    b = make_interval(F(1, 3), 1, False, False)
    got = iv_intersect(a, b)
    assert got == make_interval(F(1, 3), F(5, 12), False, False)
    for k in range(120):
        q = F(k, 120)
        brute = (0 <= q < F(5, 12)) and (F(1, 3) < q < 1)
        assert got.contains(q) == brute


def test_complement_examples():
    assert iv_complement_in_J(make_interval(0, F(1, 3), True, False)) == \
        make_interval(F(1, 3), 1, True, False)
    assert iv_complement_in_J(EMPTY_SET) == make_interval(0, 1, True, False)
    got = iv_complement_in_J(make_interval(F(1, 3), 1, False, False))
    assert parts(got) == (Interval(F(0), F(1, 3), True, True),)


def test_contains_flags():
    assert not make_interval(0, F(1, 3), True, False).contains(F(1, 3))
    closed = build([Interval(F(0), F(1, 3), True, True)])
    assert closed.contains(F(1, 3))
    assert not EMPTY_SET.contains(0)
    # total on rationals: a parameter set holds the point 1
    assert make_unit_interval(0, 1, True, True).contains(F(1))


def test_supremum():
    assert iv_supremum(make_interval(0, F(1, 2), True, False)) == F(1, 2)
    two = iset((0, F(1, 2), True, False), (F(3, 4), F(7, 8), True, False))
    assert iv_supremum(two) == F(7, 8)
    assert iv_supremum(EMPTY_SET) is None


def test_is_open_in_unit():
    assert is_open_in_unit(make_unit_interval(0, 1, True, True))
    assert is_open_in_unit(make_unit_interval(F(1, 3), F(1, 2), False, False))
    assert not is_open_in_unit(make_unit_interval(F(1, 3), F(1, 2), True, False))
    assert is_open_in_unit(EMPTY_SET)


rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def interval_sets(draw):
    out = EMPTY_SET
    for _ in range(draw(st.integers(0, 4))):
        a = draw(rationals)
        b = draw(rationals)
        lo, hi = min(a, b), max(a, b)
        out = iv_union(out, make_interval(lo, hi, draw(st.booleans()),
                                          draw(st.booleans())))
    return out


@given(interval_sets())
@settings(derandomize=True)
def test_canonical_idempotent(a):
    pairs = list(zip(a.keys[::2], a.keys[1::2]))
    assert canonical(a.den, pairs) == a
    # the same pairs over 3·den, in reverse order, reduce back to a
    tripled = [(6 * (s >> 1) + (s & 1), 6 * (e >> 1) + (e & 1)) for s, e in reversed(pairs)]
    assert canonical(3 * a.den, tripled) == a
    # empty pairs, [k, k) and reversed ones, are dropped wherever they sort,
    # also past the last key, where no pair of a could absorb them
    top = 2 * a.den + 3
    empty = [(k, k) for k in a.keys + (top,)] + [(e, s) for s, e in pairs] + [(top + 1, top)]
    assert canonical(a.den, empty + pairs) == a


@given(interval_sets(), interval_sets())
@settings(derandomize=True)
def test_union_intersect_commutative(a, b):
    assert iv_union(a, b) == iv_union(b, a)
    assert iv_intersect(a, b) == iv_intersect(b, a)


@given(interval_sets(), interval_sets(), interval_sets())
@settings(derandomize=True, max_examples=50)
def test_associativity_and_distribution(a, b, c):
    assert iv_union(iv_union(a, b), c) == iv_union(a, iv_union(b, c))
    assert iv_intersect(iv_intersect(a, b), c) == iv_intersect(a, iv_intersect(b, c))
    assert iv_intersect(a, iv_union(b, c)) == \
        iv_union(iv_intersect(a, b), iv_intersect(a, c))


@given(interval_sets())
@settings(derandomize=True)
def test_complement_involution(a):
    assert iv_complement_in_J(iv_complement_in_J(a)) == a


@given(interval_sets(), interval_sets())
@settings(derandomize=True)
def test_de_morgan(a, b):
    assert iv_complement_in_J(iv_union(a, b)) == \
        iv_intersect(iv_complement_in_J(a), iv_complement_in_J(b))
    assert iv_complement_in_J(iv_intersect(a, b)) == \
        iv_union(iv_complement_in_J(a), iv_complement_in_J(b))


@given(interval_sets(), interval_sets())
@settings(derandomize=True)
def test_subset_via_intersection(a, b):
    union = iv_union(a, b)
    assert iv_subset(a, union)
    assert iv_subset(iv_intersect(a, b), a)


@given(interval_sets())
@settings(derandomize=True, max_examples=25)
def test_membership_coherence_on_grid(a):
    for k in range(240):
        q = F(k, 240)
        brute = any(p.contains(q) for p in parts(a))
        assert a.contains(q) == brute
