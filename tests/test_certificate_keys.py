"""Differential tests of the certificate path on boundary keys.

Box images: ``h_image_of_box`` scales each fiber's key pairs directly
(``intervals.iv_scale``).  The reference is the part-by-part image it
replaced: each canonical ``Interval`` scaled with ``Fraction``s under
explicit open/closed flag rules, then handed to ``canonical``.  Regions are
seeded random fibers with mixed flags, ``{0}`` parts, sets holding 1 and
empty fibers; time boxes take every flag combination, high end 1 (scale low
end 0) and the degenerate boxes at 0, at 1 and inside.  Den, keys and JSON
must agree.  Among the mutants of ``iv_scale`` this test kills: the low
flag at a zero low end inverted, the closed 0 of the scale dropped, the
high flag made closed when either factor is, the collapse to {0} widened
to [0, 1/den), and the low end scaled by p2.

Clause realization: ``subbasis_realize`` and ``open_realize`` realize a
clause in one pass per element.  The reference is the chain they replaced:
the whole cylinder intersected with one realized subbasis open per member,
clauses joined by union.  It kills the mutants that close the low end at
gamma 0 or always, close the high end, take the least pi2 gamma, skip a
pi2 gamma of 0, or drop the cap at 1.

The integer realizer: ``_realize_clause`` works on integer numerators over
one denominator (``FuzzyTopology.level_table``).  The reference is the
``Fraction`` realizer it replaced, on small clauses with mixed
denominators, gamma -1, pi2 members alone, and ends that meet exactly.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from fuzzcyl import OpenExpr, h_image_of_box, open_realize, pi2, subbasis_realize, tstar
from fuzzcyl.cylinder import (
    CylinderOpen,
    _realize_clause,
    cyl_intersect,
    cyl_union,
    empty_cylinder,
    subbasis_elements,
    whole_cylinder,
)
from fuzzcyl.fuzzy import GroundSet
from fuzzcyl.intervals import EMPTY_SET, Interval, canonical, make_interval
from fuzzcyl.sweeps import random_topology

ZERO, ONE = F(0), F(1)

# ---------------------------------------------------------------------------
# box images


def ref_scaled_part(c, part):
    """Exact image {c * a : c in c-interval, a in part}, both nonnegative."""
    lo = c.lo * part.lo
    hi = c.hi * part.hi
    if hi == ZERO:
        return Interval(ZERO, ZERO, True, True)
    if lo == ZERO:
        lo_closed = (c.lo == ZERO and c.lo_closed) or (part.lo == ZERO and part.lo_closed)
    else:
        lo_closed = c.lo_closed and part.lo_closed
    hi_closed = c.hi_closed and part.hi_closed
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def ref_h_image_of_box(t_interval, region):
    scale = Interval(ONE - t_interval.hi, ONE - t_interval.lo,
                     t_interval.hi_closed, t_interval.lo_closed)
    fibers = []
    for fib in region.fibers:
        parts = [ref_scaled_part(scale, part) for part in fib.parts]
        fibers.append(canonical(p for p in parts if p is not None))
    return CylinderOpen(region.ground, tuple(fibers))


DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 12, 16, 32, 35)
GS = GroundSet(("a", "b", "c", "d"))


def random_value(rng):
    den = rng.choice(DENOMINATORS)
    return F(rng.randint(0, den), den)


def random_part(rng, unit_segment):
    roll = rng.random()
    if roll < 0.15:
        return Interval(ZERO, ZERO, True, True)
    lo, hi = sorted((random_value(rng), random_value(rng)))
    if roll < 0.3:
        lo = ZERO
    lo_closed, hi_closed = rng.random() < 0.5, rng.random() < 0.5
    if lo == hi:
        lo_closed = hi_closed = True
    if hi == ONE and not unit_segment:
        hi_closed = False
        if lo == hi:
            lo = ZERO
    return Interval(lo, hi, lo_closed, hi_closed)


def random_fiber(rng):
    if rng.random() < 0.2:
        return EMPTY_SET
    unit_segment = rng.random() < 0.2
    return canonical(random_part(rng, unit_segment) for _ in range(rng.randint(1, 4)))


def random_region(rng):
    return CylinderOpen(GS, tuple(random_fiber(rng) for _ in GS.elements))


def time_boxes(rng):
    """Every flag combination on a random box and on boxes ending at 1 or
    starting at 0, and the degenerate boxes at 0, at 1 and inside."""
    lo, hi = sorted(rng.sample([F(k, 24) for k in range(1, 24)], 2))
    inside = random_value(rng)
    boxes = [Interval(t, t, True, True) for t in (ZERO, ONE, F(1, 2), inside)]
    for lo_closed, hi_closed in itertools.product((True, False), repeat=2):
        boxes += [Interval(a, b, lo_closed, hi_closed)
                  for a, b in ((lo, hi), (lo, ONE), (ZERO, hi), (ZERO, ONE))]
    return boxes


def same_open(got, expect):
    """Equal ground and, fiber by fiber, equal ``den`` and ``keys`` (the
    dataclass equality), and equal JSON."""
    assert got == expect
    assert got.to_json() == expect.to_json()


@pytest.mark.parametrize("seed", range(2))
def test_h_image_of_box_matches_scaled_parts(seed):
    rng = random.Random(9_100 + seed)
    for _ in range(150):
        region = random_region(rng)
        for box in time_boxes(rng):
            same_open(h_image_of_box(box, region), ref_h_image_of_box(box, region))


# ---------------------------------------------------------------------------
# clause realization


def ref_subbasis_realize(e, topo):
    if e.kind == "pi2":
        if e.gamma < 0:
            fiber = make_interval(0, 1, True, False)
        else:
            fiber = make_interval(e.gamma, 1, False, False)
        return CylinderOpen(topo.ground, (fiber,) * len(topo.ground.elements))
    fibers = []
    for v in topo.open_named(e.open_name).levels:
        hi = min(v - e.gamma, ONE)
        fibers.append(EMPTY_SET if hi <= 0 else make_interval(0, hi, True, False))
    return CylinderOpen(topo.ground, tuple(fibers))


def ref_open_realize(expr, topo):
    out = empty_cylinder(topo.ground)
    for clause in expr.clauses:
        acc = whole_cylinder(topo.ground)
        for e in clause:
            acc = cyl_intersect(acc, ref_subbasis_realize(e, topo))
        out = cyl_union(out, acc)
    return out


def test_subbasis_realize_matches_reference():
    rng = random.Random(9_200)
    for _ in range(200):
        topo = random_topology(rng)
        for e in subbasis_elements(topo):
            same_open(subbasis_realize(e, topo), ref_subbasis_realize(e, topo))


def random_clause(rng, topo):
    """Several pi2 members and tstar members of different opens, gamma -1
    among the choices, and a pi2 gamma equal to some T(x) - gamma of a
    tstar member, so that a range's high end can equal its low end."""
    def gamma():
        return F(-1) if rng.random() < 0.15 else F(rng.randint(-32, 31), 32)

    clause = [pi2(gamma()) for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0 if clause else 1, 3)):
        name = rng.choice(topo.names)
        clause.append(tstar(name, gamma()))
    if rng.random() < 0.5:
        e = rng.choice([e for e in clause if e.kind == "tstar"] or [None])
        if e is not None:
            level = rng.choice(topo.open_named(e.open_name).levels) - e.gamma
            if 0 <= level < 1:
                clause.append(pi2(level))
    rng.shuffle(clause)
    return tuple(clause)


def test_open_realize_matches_intersect_chain():
    rng = random.Random(9_300)
    equal_ends = 0
    for _ in range(200):
        topo = random_topology(rng)
        for _ in range(10):
            expr = OpenExpr(tuple(random_clause(rng, topo)
                                  for _ in range(rng.randint(1, 3))))
            same_open(open_realize(expr, topo), ref_open_realize(expr, topo))
            equal_ends += any(
                e.kind == "pi2" and any(
                    f.kind == "tstar" and e.gamma in
                    [v - f.gamma for v in topo.open_named(f.open_name).levels]
                    for f in clause)
                for clause in expr.clauses for e in clause)
    assert equal_ends >= 100


# ---------------------------------------------------------------------------
# the integer clause realizer


def ref_realize_clause(clause, topo):
    """The Fraction realizer that ``_realize_clause`` replaced: per element,
    one ``make_interval`` from the largest pi2 gamma up to the least
    T(x) - gamma over the tstar members, capped at 1."""
    lo = max((e.gamma for e in clause if e.kind == "pi2"), default=F(-1))
    lo_closed = lo < 0
    if lo_closed:
        lo = ZERO
    caps = [(topo.open_named(e.open_name).levels, e.gamma)
            for e in clause if e.kind == "tstar"]
    if not caps:
        fiber = make_interval(lo, ONE, lo_closed, False)
        return CylinderOpen(topo.ground, (fiber,) * len(topo.ground.elements))
    fibers = []
    for i in range(len(topo.ground.elements)):
        hi = min(ONE, *(levels[i] - gamma for levels, gamma in caps))
        fibers.append(make_interval(lo, hi, lo_closed, False) if hi > lo else EMPTY_SET)
    return CylinderOpen(topo.ground, tuple(fibers))


GAMMA_DENOMINATORS = (1, 2, 3, 5, 7, 12, 32, 35, 64)


def random_small_clause(rng, topo):
    """One to three members.  Gammas have denominators unlike the levels',
    and -1 is among them; a quarter of the clauses are pi2 alone.  Half the
    time one gamma is set so that an end lands on a level exactly: a pi2
    gamma equal to T(x) - gamma of a tstar member, or a tstar gamma equal to
    T(x), so that the range is empty with equal ends."""
    def gamma():
        if rng.random() < 0.1:
            return F(-1)
        den = rng.choice(GAMMA_DENOMINATORS)
        return F(rng.randint(-den, den - 1), den)

    size = rng.randint(1, 3)
    if rng.random() < 0.25:
        clause = [pi2(gamma()) for _ in range(size)]
    else:
        clause = [tstar(rng.choice(topo.names), gamma())]
        clause += [pi2(gamma()) if rng.random() < 0.5
                   else tstar(rng.choice(topo.names), gamma()) for _ in range(size - 1)]
        if rng.random() < 0.5:
            e = clause[0]
            v = rng.choice(topo.open_named(e.open_name).levels)
            if size > 1 and 0 <= v - e.gamma < 1:
                clause[-1] = pi2(v - e.gamma)
            elif v < 1:
                clause[0] = tstar(e.open_name, v)
    rng.shuffle(clause)
    return tuple(clause)


def test_integer_realizer_matches_fraction_realizer():
    """Same den and keys on every fiber, over 6,400 clauses of one to three
    members.  Among the mutants of ``_realize_clause`` and ``iv_span`` this
    kills: the gcd reduction dropped, the low flag inverted, the emptiness
    test ``hi > lo`` made ``>=``, and the cap at 1 dropped."""
    rng = random.Random(9_400)
    seen = {"pi2-only": 0, "gamma -1": 0, "equal ends": 0, "mixed den": 0}
    for _ in range(320):
        topo = random_topology(rng)
        level_den = topo.level_table[0]
        for _ in range(20):
            clause = random_small_clause(rng, topo)
            got = _realize_clause(clause, topo)
            expect = ref_realize_clause(clause, topo)
            assert [(f.den, f.keys) for f in got.fibers] == \
                [(f.den, f.keys) for f in expect.fibers], clause
            seen["pi2-only"] += all(e.kind == "pi2" for e in clause)
            seen["gamma -1"] += any(e.gamma == -1 for e in clause)
            seen["mixed den"] += any(level_den % e.gamma.denominator for e in clause)
            lo = max((e.gamma for e in clause if e.kind == "pi2"), default=ZERO)
            seen["equal ends"] += any(
                v - e.gamma == lo for e in clause if e.kind == "tstar"
                for v in topo.open_named(e.open_name).levels)
    assert min(seen.values()) >= 600, seen
