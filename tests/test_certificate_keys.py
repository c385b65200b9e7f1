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
``clause_ends`` keeps each clause's ends in the topology's memo, and the
kept ends must be those a freshly built copy of the topology computes.

Certificates: ``continuity_witness`` builds every time box by one rule,
the epsilon-ball around the anchor time, and computes eps and the clause
in integers over one common denominator.  The reference is an earlier
``Fraction`` builder, which spelled out each regime's box and capped its
slack bounds at 1: the same ``to_json`` on anchors of every branch class,
drawn from two topology families.

Box replay: the time box is a one-pair ``IntervalSet``; ``verify_witness``
checks it with ``is_open_in_unit`` and ``contains``, reads each clause and
the target as integer span ends (``cylinder.clause_ends``), finds the
anchor in some clause's span (``intervals.span_holds``), and compares
two scaled ends per element of each clause with the target's span
(``intervals.iv_scaled_spans_within``).  One reference is the replay that
builds the whole image: the box's ``Interval`` part, the image built and
``cyl_subset`` against ``subbasis_realize``; its image is the part-by-part
reference above, so that a fault in the per-pair scaling that ``iv_scale``
and the end test share cannot reach both sides.  The other is the replay
this one replaced, which realized the region and the target and tested the
anchor and two scaled ends per fiber on them, on emitted certificates and
forgeries of each field.
"""

import itertools
import json
import random
from math import lcm
from fractions import Fraction
from fractions import Fraction as F

import pytest
from interval_ref import Interval, build, make_interval, make_unit_interval, parts

from fuzzcyl.checks import sweep_retraction_on
from fuzzcyl.cylinder import (
    CylPoint,
    CylinderOpen,
    OpenExpr,
    SubbasisElem,
    _realize_clause,
    clause_ends,
    cyl_complement,
    cyl_intersect,
    cyl_subset,
    cyl_union,
    empty_cylinder,
    open_realize,
    pi2,
    subbasis_elements,
    subbasis_realize,
    tstar,
)
from fuzzcyl.fuzzy import FuzzyTopology, GroundSet
from fuzzcyl.intervals import (
    EMPTY_SET,
    is_open_in_unit,
    iv_preimage,
    iv_scaled_spans_within,
    iv_subset,
)
from fuzzcyl.rationals import format_rational, frac
from fuzzcyl.retraction import (
    BoxWitness,
    continuity_witness,
    h_eval,
    h_image_of_box,
    read_certificates,
    verify_witness,
)
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


def test_memoised_clause_ends_match_a_fresh_computation():
    """The ends ``clause_ends`` keeps in a topology's memo are those a newly
    built copy of the topology computes, for every clause and target of the
    certificates emitted on it in all three regimes, for clauses of two and
    three members that share a first member, and for a clause and its
    reordering, all asked of the one topology in turn.  A second call
    returns the kept value, and the shared-first-member clauses have
    different ends often enough that a memo keyed by less than the whole
    clause would be seen."""
    rng = random.Random(9_500)
    regimes, distinct = set(), 0
    for _ in range(40):
        topo = random_topology(rng)
        result, witnesses = sweep_retraction_on(topo, rng, anchors=6)
        assert result.ok
        clauses = [c for w in witnesses for c in (*w.region_expr.clauses, (w.target,))]
        regimes |= {"0" if w.anchor_t == 0 else "1" if w.anchor_t == 1 else "inside"
                    for w in witnesses}
        first = random_small_clause(rng, topo)[:1]
        shared = [first + random_small_clause(rng, topo)[:size - 1]
                  for size in (2, 3, 2, 3)]
        clause = random_small_clause(rng, topo) + random_small_clause(rng, topo)
        for c in [*clauses, *shared, clause, clause[::-1]]:
            fresh = clause_ends(c, FuzzyTopology(topo.ground, topo.names, topo.opens))
            got = clause_ends(c, topo)
            assert got == fresh and type(got[3]) is tuple, c
            assert clause_ends(c, topo) is got
        distinct += len({clause_ends(c, topo) for c in shared}) > 1
        assert clause_ends(clause, topo) == clause_ends(clause[::-1], topo)
    assert regimes == {"0", "inside", "1"} and distinct >= 30, distinct


# ---------------------------------------------------------------------------
# box replay


def ref_span(den, lo, hi, lo_open):
    """The span [lo, hi)/den, open at lo when ``lo_open``, built by the
    reference; empty when hi <= lo."""
    if hi <= lo:
        return EMPTY_SET
    return build([Interval(F(lo, den), F(hi, den), not lo_open, False)])


def random_ends(rng, size):
    """Span ends (den, lo, lo_open, his) of ``size`` elements: lo at 0 or
    inside [0,1), either flag, and high ends that may lie at or below lo
    (an empty span), at 1, or anywhere between."""
    den = rng.choice(DENOMINATORS)
    lo = 0 if rng.random() < 0.3 else rng.randint(0, den - 1)
    his = [rng.choice((lo, lo - 1, den, rng.randint(lo - den, den))) for _ in range(size)]
    return den, lo, rng.random() < 0.5, his


def image_ends(a, scale):
    """The ends of the reference image of a's spans under ``scale``, when
    every image is empty or one pair closed or open at its low end and open
    at its high end (not the collapse to {0}), so that they form spans
    sharing one low end; None otherwise."""
    images = [ref_scaled(scale, ref_span(a[0], a[1], hi, a[2])) for hi in a[3]]
    filled = [parts(image)[0] for image in images if image.keys]
    if not filled or filled[0].hi == ZERO:
        return None
    part = filled[0]
    den = lcm(*(q.denominator for p in filled for q in (p.lo, p.hi)))
    lo = part.lo * den
    return (den, int(lo), not part.lo_closed,
            [int(parts(image)[0].hi * den) if image.keys else int(lo) for image in images])


def nudged(b, rng):
    """b over twice its den with one end moved by half a numerator inwards
    or outwards, within [0,1), or its low flag flipped."""
    den, lo, lo_open, his = b
    move, step = rng.choice(("lo", "hi", "flag")), rng.choice((-1, 1))
    if move == "lo":
        return 2 * den, max(0, 2 * lo + step), lo_open, [2 * h for h in his]
    if move == "hi":
        return 2 * den, 2 * lo, lo_open, [min(2 * den, 2 * h + step) for h in his]
    return den, lo, not lo_open, his


def test_iv_scaled_spans_within_matches_the_built_image():
    """Against ``iv_subset`` of the part-by-part image of each span, built
    by the reference, for every box of ``time_boxes`` and target spans that
    are random, empty over every element, equal to the image itself, or the
    image with one end moved by half a numerator or its low flag flipped,
    over one to four elements."""
    rng = random.Random(9_500)
    verdicts = {(kind, v): 0 for kind in ("random", "empty", "image", "nudged")
                for v in (True, False)}
    del verdicts["image", False]
    for _ in range(150):
        size = rng.randint(1, 4)
        a = random_ends(rng, size)
        for box in time_boxes(rng):
            scale = Interval(ONE - box.hi, ONE - box.lo, box.hi_closed, box.lo_closed)
            targets = [("random", random_ends(rng, size)), ("random", random_ends(rng, size)),
                       ("empty", (1, 0, False, [0] * size))]
            image = image_ends(a, scale)
            if image is not None:
                targets += [("image", image), ("nudged", nudged(image, rng))]
            for kind, b in targets:
                got = iv_scaled_spans_within(build([box]), a, b)
                expect = all(iv_subset(ref_scaled(scale, ref_span(a[0], a[1], hi, a[2])),
                                       ref_span(b[0], b[1], bhi, b[2]))
                             for hi, bhi in zip(a[3], b[3]))
                assert got == expect, (a, box, b)
                verdicts[kind, got] += 1
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


@pytest.mark.parametrize("family", [{"max_generators": 2, "max_den": 8}, {}],
                         ids=["max_den=8", "defaults"])
def test_continuity_witness_matches_the_per_regime_boxes(family):
    """The same certificate bytes as the reference on one drawn anchor per
    regime and topology, and on its alpha = 0 variant (same t and target)
    whenever that variant's image lies in the target, for two families of
    600 topologies: at most two generators with denominators up to 8 (3,422
    certificates), and ``random_topology``'s defaults, the ``certify``
    deck's, with denominators up to 32 (3,447 certificates), where the
    builder's common denominator L is larger.  Each family reaches each of
    the 13 branch classes of ``branch_class`` at least 50 times (the fewest:
    62 at t = 1 on a pi2 target with alpha > 0 in the first, 60 at
    0 < t < 1 on a pi2 target with alpha = 0 in the second)."""
    rng = random.Random(20261019)
    seen = {}
    for _ in range(600):
        topo = random_topology(rng, **family)
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
    region = open_realize(w.region_expr, topo)
    if w.region is not None and w.region != region:
        return False
    if not region.fiber(w.anchor.x).contains(w.anchor.alpha):
        return False
    return cyl_subset(ref_h_image_of_box(box, region),
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
    high end compared alone, the closed-0 rule of the scaling dropped, the
    high flag closed when either factor's is, the openness test of a
    closed low end dropped, and only the first clause's image or anchor
    checked."""
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


# ---------------------------------------------------------------------------
# replay against the realizing replay it replaced


def parent_scaled_pair(s, e, cs, ce):
    """``intervals._scaled_pair`` as the realizing replay used it."""
    lo, hi = (cs >> 1) * (s >> 1), (ce >> 1) * (e >> 1)
    if hi == 0:
        return 0, 1
    lo_open = (s | cs) & 1 if lo else cs != 0 and s != 0
    return 2 * lo + lo_open, 2 * hi + (e & ce & 1)


def parent_iv_scale_within(a, c, b):
    """The deleted ``intervals.iv_scale_within``: the image of a under the
    one-pair scale set c lies in b, empty or one pair, when the scaled low
    end of a's first pair and high end of its last pair do."""
    k = a.keys
    if not k:
        return True
    if not b.keys:
        return False
    bs, be = b.keys
    cs, ce = c.keys
    lo = parent_scaled_pair(k[0], k[1], cs, ce)[0]
    hi = parent_scaled_pair(k[-2], k[-1], cs, ce)[1]
    den = c.den * a.den
    both = lcm(den, b.den)
    m, mb = both // den, both // b.den
    return (2 * (bs >> 1) * mb + (bs & 1) <= 2 * (lo >> 1) * m + (lo & 1)
            and 2 * (hi >> 1) * m + (hi & 1) <= 2 * (be >> 1) * mb + (be & 1))


def parent_verify_witness(w, topo):
    """The replay that realized the region (the union of its clauses) and
    the target, and tested the anchor and each fiber's image on them."""
    t = w.t_interval
    if not (is_open_in_unit(t) and t.contains(w.anchor_t)):
        return False
    region = open_realize(w.region_expr, topo)
    if w.region is not None and w.region != region:
        return False
    if not region.fiber(w.anchor.x).contains(w.anchor.alpha):
        return False
    scale = iv_preimage(t, 1, -1, 1)
    target = subbasis_realize(w.target, topo)
    return all(parent_iv_scale_within(a, scale, b)
               for a, b in zip(region.fibers, target.fibers))


NUDGE = F(1, 97)


def rational_paths(doc):
    """The path of each rational field of a certificate document: the time
    box's ends, the anchor time and level, each clause gamma and the
    target's gamma."""
    paths = [("t_interval", "lo"), ("t_interval", "hi"), ("anchor_t",), ("anchor", "alpha"),
             ("target", "gamma")]
    paths += [("region_expr", i, j, "gamma") for i, clause in enumerate(doc["region_expr"])
              for j in range(len(clause))]
    return paths


def with_field(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def field(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def missing_clause(rng, topo, x, alpha):
    """A clause whose fiber over x does not hold alpha, often empty over
    some element (a tstar gamma at one of the open's levels), or None."""
    for _ in range(20):
        clause = random_small_clause(rng, topo)
        if not _realize_clause(clause, topo).fiber(x).contains(alpha):
            return clause
    return None


def empty_somewhere(rng, topo):
    """A tstar target at gamma T(y) for some y with T(y) < 1: its fiber
    over y is empty."""
    name = rng.choice([n for n, f in topo.items() if min(f.levels) < 1] or [None])
    if name is None:
        return None
    level = rng.choice([v for v in topo.open_named(name).levels if v < 1])
    return tstar(name, level).to_json()


def touching_boxes(t):
    """Time boxes that reach 0 or 1 and hold the anchor time t."""
    boxes = []
    if t < 1:
        boxes.append({"lo": "0", "hi": format_rational((t + 1) / 2), "lo_open": False,
                      "hi_open": True})
        boxes.append({"lo": "0", "hi": "1", "lo_open": False, "hi_open": False})
    if t > 0:
        boxes.append({"lo": format_rational(t / 2), "hi": "1", "lo_open": True,
                      "hi_open": False})
    return boxes


def forgeries(rng, topo, doc):
    """(kind, document) of each forgery of one emitted certificate: each
    rational field nudged by +-1/97, each time-box flag flipped, boxes
    touching 0 and 1, regions of two or three clauses with the anchor only
    in the last, and a target empty over some element.  The first earlier
    clause is, in turn, the certificate's own clause cut above the anchor
    level, whose image still lies in the target, the levels above the
    anchor's, whose image seldom does, and a drawn clause that misses the
    anchor, often empty over some element."""
    for path in rational_paths(doc):
        for step in (NUDGE, -NUDGE):
            yield "nudged", with_field(doc, path, format_rational(frac(field(doc, path)) + step))
    for flag in ("lo_open", "hi_open"):
        yield "flag flipped", with_field(doc, ("t_interval", flag), not doc["t_interval"][flag])
    for box in touching_boxes(frac(doc["anchor_t"])):
        yield "box at 0 or 1", with_field(doc, ("t_interval",), box)
    x, alpha = doc["anchor"]["x"], frac(doc["anchor"]["alpha"])
    (w,) = read_certificates(topo, [doc])
    clauses = w.region_expr.clauses
    for first in ((*clauses[0], pi2(alpha)), (pi2(alpha),), missing_clause(rng, topo, x, alpha)):
        earlier = [first] + [missing_clause(rng, topo, x, alpha)
                             for _ in range(rng.randint(0, 1))]
        if None not in earlier:
            kind = "anchor in a later clause"
            if any(not all(fib.keys for fib in _realize_clause(c, topo).fibers)
                   for c in earlier):
                kind = "and a clause empty somewhere"
            yield kind, with_field(doc, ("region_expr",),
                                   OpenExpr((*earlier, *clauses)).to_json())
    target = empty_somewhere(rng, topo)
    if target is not None:
        yield "target empty somewhere", with_field(doc, ("target",), target)


@pytest.mark.parametrize("family", [{"max_generators": 2, "max_den": 8}, {}],
                         ids=["max_den=8", "defaults"])
def test_verify_witness_matches_the_realizing_replay(family):
    """The same verdict as the parent's realizing replay, kept above, on the
    emitted certificates of every regime and on forgeries of each (see
    ``forgeries``), replayed on a freshly loaded topology.  The families are
    small topologies with denominators up to 8 and ``random_topology``'s
    defaults, the ``certify`` deck's draws, on up to 6 points.  Each kind
    of forgery but two is both accepted and rejected at least 20 times; a
    flipped flag always leaves the box closed inside (0,1) or without the
    anchor time, and a target empty somewhere is almost always missed.  A
    forgery that does not load is skipped, as the CLI rejects it before
    replay."""
    rng = random.Random(20261020)
    seen = {}
    regimes = set()
    for _ in range(40):
        topo = random_topology(rng, **family)
        result, witnesses = sweep_retraction_on(topo, rng, anchors=6)
        assert result.ok
        replay = FuzzyTopology(topo.ground, topo.names, topo.opens)
        for w in witnesses:
            assert verify_witness(w, replay) and parent_verify_witness(w, replay)
            regimes.add("0" if w.anchor_t == 0 else "1" if w.anchor_t == 1 else "inside")
            for kind, doc in forgeries(rng, topo, w.to_json()):
                try:
                    (forged,) = read_certificates(replay, [doc])
                except (KeyError, TypeError, ValueError):
                    continue
                verdict = verify_witness(forged, replay)
                assert verdict == parent_verify_witness(forged, replay), doc
                seen[kind, verdict] = seen.get((kind, verdict), 0) + 1
    assert regimes == {"0", "inside", "1"}
    assert min(seen.get((kind, verdict), 0) for verdict in (True, False)
               for kind in ("nudged", "box at 0 or 1", "anchor in a later clause",
                            "and a clause empty somewhere")) >= 20, seen
    assert min(seen["flag flipped", False], seen["target empty somewhere", False]) >= 200, seen
