"""Differential tests of the certificate path on boundary keys.

Box images: ``h_image_of_box`` scales each fiber's key pairs directly
(``intervals.iv_scale``).  The reference is the part-by-part image it
replaced: each canonical ``Interval`` scaled with ``Fraction``s under
explicit open/closed flag rules, then normalized by the reference
(``interval_ref.build``).  Regions are
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

Certificates: ``continuity_witness`` builds every time box by one rule,
the epsilon-ball around the anchor time.  The reference is the builder it
replaced, which spelled out each regime's box and capped its slack bounds
at 1: the same ``to_json`` on anchors of every branch class.

Box replay: the time box is a one-pair ``IntervalSet``; ``verify_witness``
checks it with ``is_open_in_unit`` and ``contains``, and compares two
scaled ends per fiber with the realized target
(``intervals.iv_scale_within``).  The reference is the replay that builds
the whole image: the box's ``Interval`` part, the image built and
``cyl_subset`` against ``subbasis_realize``; its image is the part-by-part
reference above, so that a fault in the per-pair scaling that ``iv_scale``
and the end test share cannot reach both sides.
"""

import itertools
import random
from fractions import Fraction
from fractions import Fraction as F

import pytest
from interval_ref import Interval, build, parts

from fuzzcyl import (
    OpenExpr,
    continuity_witness,
    h_eval,
    h_image_of_box,
    open_realize,
    pi2,
    subbasis_realize,
    tstar,
    verify_witness,
)
from fuzzcyl.checks import sweep_retraction_on
from fuzzcyl.cylinder import (
    CylinderOpen,
    SubbasisElem,
    _realize_clause,
    cyl_complement,
    cyl_intersect,
    cyl_subset,
    cyl_union,
    empty_cylinder,
    subbasis_elements,
)
from fuzzcyl.fuzzy import FuzzyTopology, GroundSet
from fuzzcyl.intervals import (
    EMPTY_SET,
    is_open_in_unit,
    iv_scale_within,
    iv_subset,
    make_interval,
    make_unit_interval,
)
from fuzzcyl.rationals import frac
from fuzzcyl.retraction import BoxWitness, CylPoint
from fuzzcyl.sweeps import random_anchor, random_topology

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


def ref_scaled(scale, fib):
    scaled = [ref_scaled_part(scale, part) for part in parts(fib)]
    return build(p for p in scaled if p is not None)


def ref_h_image_of_box(t_interval, region):
    scale = Interval(ONE - t_interval.hi, ONE - t_interval.lo,
                     t_interval.hi_closed, t_interval.lo_closed)
    return CylinderOpen(region.ground, tuple(ref_scaled(scale, fib) for fib in region.fibers))


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
    return build(random_part(rng, unit_segment) for _ in range(rng.randint(1, 4)))


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
            same_open(h_image_of_box(build([box]), region),
                      ref_h_image_of_box(box, region))


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
        acc = cyl_complement(empty_cylinder(topo.ground))
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


# ---------------------------------------------------------------------------
# box replay


def test_iv_scale_within_matches_the_built_image():
    """Against ``iv_subset`` of the part-by-part image, for right-hand sets
    that are empty or one pair, including b equal to the image itself; a b
    of several pairs raises when a is nonempty."""
    rng = random.Random(9_500)
    verdicts = {(size, v): 0 for size in ("empty", "one") for v in (True, False)}
    verdicts["more", "raises"] = 0
    for _ in range(150):
        a = random_fiber(rng)
        for box in time_boxes(rng):
            scale = Interval(ONE - box.hi, ONE - box.lo, box.hi_closed, box.lo_closed)
            image = ref_scaled(scale, a)
            for b in (random_fiber(rng), random_fiber(rng), image, EMPTY_SET,
                      build([random_part(rng, False)])):
                if len(b.keys) > 2:
                    if a.keys:
                        with pytest.raises(ValueError):
                            iv_scale_within(a, build([scale]), b)
                        verdicts["more", "raises"] += 1
                    continue
                got = iv_scale_within(a, build([scale]), b)
                assert got == iv_subset(image, b), (a, box, b)
                verdicts["empty" if not b.keys else "one", got] += 1
    assert min(verdicts.values()) >= 50, verdicts


# ---------------------------------------------------------------------------
# certificates

def ref_witness(t_lo, t_hi, lo_closed, hi_closed, clause, topo, target, t, p) -> BoxWitness:
    expr = OpenExpr((tuple(clause),))
    return BoxWitness(
        t_interval=make_unit_interval(t_lo, t_hi, lo_closed, hi_closed),
        region_expr=expr,
        region=open_realize(expr, topo),
        target=target,
        anchor_t=frac(t),
        anchor=p,
    )


def ref_continuity_witness(t, p: CylPoint, target: SubbasisElem,
                           topo: FuzzyTopology) -> BoxWitness:
    """Build a box certificate around (t, p) for the given subbasis target.

    Case dispatch mirrors the three regimes t = 1, 0 < t < 1, t = 0; in each
    the epsilon is half the maximal admissible slack.
    """
    t = frac(t)
    x, alpha = p.x, p.alpha
    image = h_eval(t, p)
    if not subbasis_realize(target, topo).fiber(image.x).contains(image.alpha):
        raise ValueError(f"H({t},{p}) does not lie in the target {target}")
    gamma = target.gamma
    if target.kind == "tstar":
        tv = topo.open_named(target.open_name)(x)

    if t == ONE:
        if target.kind == "pi2":
            # image level is 0, so gamma < 0 and any box lands above gamma
            if alpha == ZERO:
                eps = Fraction(1, 2)
                clause = [pi2(Fraction(-1))]
            else:
                eps = min(ONE, alpha) / 2
                clause = [pi2(alpha - eps)]
            return ref_witness(ONE - eps, ONE, False, True, clause, topo, target, t, p)
        if alpha == ZERO:
            eps = Fraction(1, 2)
            clause = [target]
        else:
            eps = min(ONE, alpha, (tv - gamma) / 2) / 2
            clause = [tstar(target.open_name, max(Fraction(-1), gamma - alpha + 2 * eps)),
                      pi2(alpha - eps)]
        return ref_witness(ONE - eps, ONE, False, True, clause, topo, target, t, p)

    if t == ZERO:
        if target.kind == "pi2":
            if alpha == ZERO:
                eps = Fraction(1, 2)
                clause = [pi2(gamma)]
            else:
                bound = ONE if gamma <= 0 else ONE - gamma / alpha
                eps = min(ONE, bound) / 2
                clause = [pi2(max(Fraction(-1), gamma / (ONE - eps)))]
        else:
            eps = Fraction(1, 2)
            clause = [target]
        return ref_witness(ZERO, eps, True, False, clause, topo, target, t, p)

    # 0 < t < 1
    if target.kind == "pi2":
        bounds = [t, ONE - t]
        if alpha > ZERO:
            bounds.append(((ONE - t) * alpha - gamma) / alpha)
        eps = min(bounds) / 2
        clause = [pi2(max(Fraction(-1), gamma + (t + eps) * alpha))]
    else:
        slack = (tv - (ONE - t) * alpha - gamma) / (ONE + t)
        eps = min(t, ONE - t, slack) / 2
        mu = max(Fraction(-1), gamma - alpha * t + eps * (t + ONE))
        clause = [tstar(target.open_name, mu), pi2(max(Fraction(-1), alpha - eps))]
    return ref_witness(t - eps, t + eps, False, False, clause, topo, target, t, p)


def branch_class(t, p, target):
    """The branch of ``continuity_witness`` that (t, p, target) takes: the
    regime, the target kind and whether alpha is 0; at t = 0 on a pi2
    target with alpha > 0, also the sign of gamma."""
    regime = "t=1" if t == ONE else "t=0" if t == ZERO else "0<t<1"
    key = (regime, target.kind, "alpha=0" if p.alpha == ZERO else "alpha>0")
    if key == ("t=0", "pi2", "alpha>0"):
        key += ("gamma<=0" if target.gamma <= 0 else "gamma>0",)
    return key


def test_continuity_witness_matches_the_per_regime_boxes():
    """The same certificate bytes as the reference on one drawn anchor per
    regime and topology, and on its alpha = 0 variant (same t and target)
    whenever that variant's image lies in the target: 3,422 certificates,
    each of the 13 branch classes of ``branch_class`` at least 50 times
    (the fewest, 62, at t = 1 on a pi2 target with alpha > 0)."""
    rng = random.Random(20261019)
    seen = {}
    for _ in range(600):
        topo = random_topology(rng, max_generators=2, max_den=8)
        for case in ("zero", "interior", "one"):
            anchor = random_anchor(rng, topo, case)
            if anchor is None:
                continue
            t, p, target = anchor
            anchors = [p]
            flat = CylPoint(p.x, ZERO)
            image = h_eval(t, flat)
            if subbasis_realize(target, topo).fiber(image.x).contains(image.alpha):
                anchors.append(flat)
            for q in anchors:
                got = continuity_witness(t, q, target, topo).to_json()
                assert got == ref_continuity_witness(t, q, target, topo).to_json(), (t, q, target)
                key = branch_class(t, q, target)
                seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 13 and min(seen.values()) >= 50, seen


def ref_verify_witness(w, topo):
    (box,) = parts(w.t_interval)
    if not is_open_in_unit(build([box])):
        return False
    if not box.contains(w.anchor_t):
        return False
    if not w.region.fiber(w.anchor.x).contains(w.anchor.alpha):
        return False
    if open_realize(w.region_expr, topo) != w.region:
        return False
    return cyl_subset(ref_h_image_of_box(box, w.region),
                      subbasis_realize(w.target, topo))


BELOW_ZERO = (F(-1), F(-1, 2), F(-1, 7))
ABOVE_ZERO = (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(5, 6))


def replay_targets(rng, topo):
    """pi2 targets with gamma below 0, at 0 and above 0; a tstar target at a
    random gamma and one at gamma T(x) for some x, whose fiber over x is
    empty."""
    name = rng.choice([n for n, f in topo.items() if min(f.levels) < 1])
    levels = [v for v in topo.open_named(name).levels if v < 1]
    return [pi2(rng.choice(BELOW_ZERO)), pi2(ZERO), pi2(rng.choice(ABOVE_ZERO)),
            tstar(rng.choice(topo.names), rng.choice(BELOW_ZERO + (ZERO,) + ABOVE_ZERO)),
            tstar(name, rng.choice(levels))]


def point_in(fib, rng):
    part = rng.choice(parts(fib))
    return part.lo if part.lo_closed else (part.lo + part.hi) / 2


def time_in(box):
    if box.lo_closed:
        return box.lo
    return box.hi if box.hi_closed else (box.lo + box.hi) / 2


def gap_clauses(rng, topo):
    """A clause below T(x) - g and one above a pi2 gamma b, perhaps capped
    by another open: two key pairs over x where T(x) - g <= b."""
    low = (tstar(rng.choice(topo.names), F(rng.randint(-4, 11), 12)),)
    high = (pi2(F(rng.randint(0, 11), 12)),)
    if rng.random() < 0.5:
        high += (tstar(rng.choice(topo.names), F(rng.randint(-12, 0), 12)),)
    return (low, high)


def forged_witnesses(rng, topo, seen):
    """Witnesses over a region of one to three clauses, half of them with a
    gap (several key pairs per fiber), an anchor inside it, every box of
    ``time_boxes`` with a time inside it, and each of ``replay_targets``."""
    if rng.random() < 0.5:
        expr = OpenExpr(gap_clauses(rng, topo))
    else:
        expr = OpenExpr(tuple(random_small_clause(rng, topo)
                              for _ in range(rng.randint(1, 3))))
    region = open_realize(expr, topo)
    filled = [x for x, fib in zip(topo.ground.elements, region.fibers) if fib.keys]
    if not filled:
        return
    x = rng.choice(filled)
    anchor = CylPoint(x, point_in(region.fiber(x), rng))
    multi_pair = any(len(fib.keys) > 2 for fib in region.fibers)
    for target in replay_targets(rng, topo):
        kinds = ["multi-pair region"] * multi_pair
        if not all(fib.keys for fib in subbasis_realize(target, topo).fibers):
            kinds.append("empty target fiber")
        if target.kind == "pi2":
            kinds.append("pi2 gamma " + ("<" if target.gamma < 0 else
                                         "=" if target.gamma == 0 else ">") + " 0")
        for box in time_boxes(rng):
            for kind in kinds:
                seen[kind] += 1
            yield BoxWitness(build([box]), expr, region, target,
                             time_in(box), anchor)


def closed_low_end(w):
    """The witness with its box closed at the low end: not open in [0,1]
    unless that end is 0, and otherwise as good as the original."""
    (t,) = parts(w.t_interval)
    return BoxWitness(build([Interval(t.lo, t.hi, True, t.hi_closed)]),
                      w.region_expr, w.region, w.target, w.anchor_t, w.anchor)


def test_verify_witness_matches_the_built_image_replay():
    """The same verdict as the reference on valid witnesses from
    ``sweep_retraction_on`` and on forged ones (see ``forged_witnesses``
    and ``closed_low_end``), each replayed on a freshly loaded topology so
    that targets are realized anew.  Among the mutants this kills: the
    first pair's high end taken for the last pair's, the high end
    compared alone, the closed-0 rule of the scaling dropped, the high
    flag closed when either factor's is, and the openness test of a closed
    low end dropped."""
    rng = random.Random(9_600)
    seen = {"valid": 0, "forged accepted": 0, "forged rejected": 0,
            "multi-pair region": 0, "empty target fiber": 0,
            "pi2 gamma < 0": 0, "pi2 gamma = 0": 0, "pi2 gamma > 0": 0}
    for _ in range(24):
        topo = random_topology(rng, max_generators=2, max_den=8)
        result, valid = sweep_retraction_on(topo, rng, anchors=30)
        assert result.ok
        forged = [closed_low_end(w) for w in valid]
        for _ in range(4):
            forged += forged_witnesses(rng, topo, seen)
        replay = FuzzyTopology(topo.ground, topo.names, topo.opens)
        for w in valid:
            assert verify_witness(w, replay) and ref_verify_witness(w, replay)
            seen["valid"] += 1
        for w in forged:
            verdict = verify_witness(w, replay)
            assert verdict == ref_verify_witness(w, replay), w
            seen["forged accepted" if verdict else "forged rejected"] += 1
    assert min(seen.values()) >= 500, seen
