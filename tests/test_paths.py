import random
from fractions import Fraction
from functools import cache

import pytest
from interval_ref import build, interval, make_interval, make_unit_interval, parts

from fuzzcyl.base_space import specialization_preorder
from fuzzcyl.cylinder import (
    CylPoint,
    CylinderOpen,
    cyl_union,
    pi2,
    subbasis_elements,
    subbasis_realize,
    tstar,
)
from fuzzcyl.fuzzy import FuzzySet, fz_generate_topology, fz_indicator, ground
from fuzzcyl.intervals import (
    EMPTY_SET,
    is_open_in_unit,
    iv_subset,
)
from fuzzcyl.paths import (
    ChiBoundary,
    Concat,
    Const,
    FencePath,
    HLift,
    HTransform,
    PathTable,
    Reverse,
    VerticalAffine,
    _table_continuity_failure,
    chi_eval,
    chi_keys,
    continuity_failure,
    eval_keys,
    eval_path,
    functor_object_path,
    kappa,
    make_fence_path,
    normalize_path,
    path_end,
    path_preimage,
    path_start,
    path_table,
)
from fuzzcyl.retraction import h_eval
from fuzzcyl.sweeps import random_path, random_topology

F = Fraction
AB = ground("a", "b")


def const_topo(*values):
    gens = [FuzzySet.constant(AB, F(v) if isinstance(v, str) else v)
            for v in values]
    return fz_generate_topology(gens, AB)


def open_with_levels(topo, value):
    for name, f in topo.items():
        if f.levels == (value, value):
            return name
    raise AssertionError


def test_kappa_examples():
    assert kappa(F(1, 4), F(3, 4), 0) == F(1, 4)
    assert kappa(F(1, 4), F(3, 4), 1) == F(3, 4)
    assert kappa(F(1, 4), F(3, 4), F(1, 2)) == F(1, 2)
    assert kappa(1, 0, 1 - F(1, 3)) == kappa(0, 1, F(1, 3))
    with pytest.raises(ValueError):
        kappa(0, 1, 2)
    with pytest.raises(ValueError):
        kappa(F(-1, 2), 1, 0)
    assert kappa(1, 1, 1) == 1


def test_eval_path_parameter_range():
    path = VerticalAffine("x", F(0), F(1, 2))
    assert eval_path(path, 1) == CylPoint("x", F(1, 2))
    for u in (F(-1, 64), F(65, 64), 2):
        with pytest.raises(ValueError):
            eval_path(path, u)
    with pytest.raises(TypeError):
        eval_path(path, 0.5)
    with pytest.raises(TypeError):
        eval_path("not a path", 0)


def test_eval_vertical_affine():
    path = VerticalAffine("x", F(0), F(1, 2))
    assert eval_path(path, F(1, 2)) == CylPoint("x", F(1, 4))


def test_eval_h_transform_collapse_and_identity():
    gamma = VerticalAffine("x", F(0), F(1, 2))
    assert eval_path(HTransform(F(1), gamma), F(2, 7)).alpha == 0
    assert eval_path(HTransform(F(0), gamma), F(1, 3)) == \
        eval_path(gamma, F(1, 3))


def test_concat_halving_and_reverse():
    a = VerticalAffine("x", F(0), F(1, 2))
    b = VerticalAffine("x", F(1, 2), F(1, 4))
    two = Concat((a, b))
    assert eval_path(two, F(1, 4)) == eval_path(a, F(1, 2))
    assert eval_path(two, F(3, 4)) == eval_path(b, F(1, 2))
    assert eval_path(Reverse(two), F(1, 4)) == eval_path(two, F(3, 4))


def test_concat_rejects_endpoint_mismatch():
    a = VerticalAffine("x", F(0), F(1, 2))
    b = VerticalAffine("x", F(1, 4), F(1, 8))
    with pytest.raises(ValueError):
        Concat((a, b))
    # nor is one part a concatenation
    with pytest.raises(ValueError, match="^concatenation needs at least two parts$"):
        Concat((a,))


def test_fence_path_evaluation_convention():
    lifted = HLift(FencePath(("a", "b"), ("b",)), F(0))
    assert eval_path(lifted, F(0)).x == "a"
    assert eval_path(lifted, F(1, 4)).x == "b"
    assert eval_path(lifted, F(1)).x == "b"


def test_chi_eval_examples():
    rho = Const(CylPoint("z", F(1, 2)))
    assert chi_eval(rho, 0, 1, F(1, 5), 0) == CylPoint("z", F(1, 2))
    assert chi_eval(rho, 0, 1, F(1, 5), F(1, 2)) == CylPoint("z", F(1, 4))
    rng = random.Random(3)
    for _ in range(10):
        eta = F(rng.randint(0, 8), 8)
        t = F(rng.randint(0, 8), 8)
        assert chi_eval(rho, F(1, 4), t, eta, 1) == \
            eval_path(HTransform(t, rho), eta)


def test_chi_boundary_examples():
    rho = Const(CylPoint("y", F(1, 2)))
    assert path_table(ChiBoundary(rho, F(0), F(1), 0)) == \
        path_table(VerticalAffine("y", F(1, 2), F(0)))
    assert path_table(ChiBoundary(rho, F(1, 3), F(1, 3), 0)) == \
        path_table(VerticalAffine("y", F(1, 3), F(1, 3)))
    # the canonical vertical connector between (y,alpha) and (y,beta)
    alpha, beta = F(1, 2), F(1, 4)
    conn = ChiBoundary(Const(CylPoint("y", alpha)), F(0), 1 - beta / alpha, 0)
    assert path_start(conn) == CylPoint("y", alpha)
    assert path_end(conn) == CylPoint("y", beta)
    assert path_table(conn) == path_table(VerticalAffine("y", alpha, beta))
    # end 1 anchors on the last point of rho
    rho = VerticalAffine("y", F(1, 4), F(3, 4))
    assert path_table(ChiBoundary(rho, F(1, 3), F(1, 2), 1)) == \
        path_table(VerticalAffine("y", F(1, 2), F(3, 8)))


def path_in_open(e, open_set):
    """Exact image containment: the preimage is all of [0,1]."""
    return path_preimage(e, open_set) == make_unit_interval(0, 1, True, True)


def test_path_in_open():
    topo = const_topo("2/3")
    name = open_with_levels(topo, F(2, 3))
    target = subbasis_realize(tstar(name, F(1, 4)), topo)  # fibers [0,5/12)
    assert path_in_open(VerticalAffine("a", F(1, 8), F(1, 3)), target)
    assert not path_in_open(VerticalAffine("a", F(1, 8), F(1, 2)), target)
    p2 = subbasis_realize(pi2(F(1, 8)), topo)
    assert path_in_open(VerticalAffine("a", F(1, 4), F(1, 2)), p2)


def test_path_in_open_needs_the_whole_segment():
    topo = const_topo("1/4")
    name = open_with_levels(topo, F(1, 4))
    # fibers [0,1/4) u (1/2,1): both ends of the segment lie inside, its
    # middle does not
    gap = cyl_union(subbasis_realize(tstar(name, 0), topo),
                    subbasis_realize(pi2(F(1, 2)), topo))
    for path in (VerticalAffine("a", F(1, 8), F(3, 4)),
                 Reverse(HTransform(F(1, 4), VerticalAffine("a", F(1, 6), F(7, 8))))):
        assert path_in_open(Const(path_start(path)), gap)
        assert path_in_open(Const(path_end(path)), gap)
        assert not path_in_open(path, gap)
        assert not reference_in_open(path, gap)


def test_path_preimage_open_examples():
    topo = const_topo("2/3")
    name = open_with_levels(topo, F(2, 3))
    half_speed = VerticalAffine("x", F(0), F(1, 2))
    # levels u/2 lie in [0, 5/12) iff u < 5/6
    topo_x = fz_generate_topology([FuzzySet.constant(ground("x"), F(2, 3))],
                                  ground("x"))
    name_x = [n for n, f in topo_x.items() if f.levels == (F(2, 3),)][0]
    pre = path_preimage(half_speed,
                        subbasis_realize(tstar(name_x, F(1, 4)), topo_x))
    assert pre == make_unit_interval(0, F(5, 6), True, False)
    assert is_open_in_unit(pre)

    lift = HLift(FencePath(("x",), ()), F(1, 2))
    pre = path_preimage(lift, subbasis_realize(pi2(F(1, 4)), topo_x))
    assert pre == make_unit_interval(0, 1, True, True)
    assert is_open_in_unit(pre)

    const = Const(CylPoint("x", F(1, 3)))
    for gamma in (F(1, 4), F(1, 2)):
        assert is_open_in_unit(
            path_preimage(const, subbasis_realize(tstar(name_x, gamma), topo_x)))


def test_hlift_preimage_open_on_sierpinski():
    topo = fz_generate_topology([fz_indicator(["a"], AB)], AB)
    relation = specialization_preorder(topo)
    fence = make_fence_path(("b", "a"), relation)
    lift = HLift(fence, F(0))
    name = [n for n, f in topo.items() if f.levels == (F(1), F(0))][0]
    # the single segment leaves b immediately, so the preimage of the open
    # over {a} is (0,1]
    pre = path_preimage(lift, subbasis_realize(tstar(name, F(1, 2)), topo))
    assert pre == make_unit_interval(0, 1, False, True)
    assert is_open_in_unit(pre)
    assert continuity_failure(lift, topo) is None


def test_continuity_failure_on_a_wrong_interior_lift():
    # T = (0, 1/32) puts a below b; the lift keeps the smaller end a on
    # its interior, so T* jumps up at u = 1: T(b) - 2/5 > T(a) - 2/5
    T = FuzzySet(AB, (F(0), F(1, 32)))
    topo = fz_generate_topology([T], AB)
    name = [n for n, f in topo.items() if f == T][0]
    wrong = HLift(FencePath(("a", "b"), ("a",)), F(2, 5))
    assert continuity_failure(wrong, topo) == (1, "left", "below")
    assert continuity_failure(Reverse(wrong), topo) == (0, "right", "below")
    # the open T* at gamma = -3/8 holds (b, 2/5) alone, so its preimage
    # is {1}, which no family of critical gammas reaches
    pre = path_preimage(wrong, subbasis_realize(tstar(name, F(-3, 8)), topo))
    assert pre == make_unit_interval(1, 1, True, True)
    assert not is_open_in_unit(pre)
    right = HLift(FencePath(("a", "b"), ("b",)), F(2, 5))
    assert continuity_failure(right, topo) is None
    assert continuity_failure(Concat((Reverse(right), right)), topo) is None


def test_continuity_failure_on_a_level_jump():
    topo = const_topo("1/2")
    # on (0, 1/2) the path climbs from (a, 0) at level u, then it sits at
    # (a, 1/4) from u = 1/2 on: the left limit 1/2 is above the point's
    # level, and the right piece starts at it
    table = PathTable(4, (0, 2, 4), (("a", 0), ("a", 1), ("a", 1)),
                      (("a", 0, 4), ("a", 1, 0)))
    assert _table_continuity_failure(table, topo) == (F(1, 2), "left", "level-jump")
    # a jump on the right side of u = 1/2: level 1/4 up to it, 1/2 after
    flipped = PathTable(4, (0, 2, 4), (("a", 1), ("a", 1), ("a", 2)),
                        (("a", 1, 0), ("a", 2, 0)))
    assert _table_continuity_failure(flipped, topo) == (F(1, 2), "right", "level-jump")
    assert _table_continuity_failure(path_table(VerticalAffine("a", F(0), F(1, 2))),
                                     topo) is None


@pytest.mark.parametrize("steps,interiors,error", [
    # an interior value must be one end of its segment
    (("a", "b"), ("zz",), ValueError),
    (("a", "b", "c"), ("b", "a"), ValueError),
    # one interior value per segment
    (("a", "b"), ("b", "b"), ValueError),
    # every step and interior value is a ground element name
    ((1, [2]), (1,), TypeError),
    (("a", ["b"]), ("a",), TypeError),
    (("a", "b"), (None,), TypeError),
    # a fence has at least one step
    ((), (), ValueError),
], ids=["interior-outside", "interior-other-segment", "interiors-too-many",
        "steps-not-strings", "step-list", "interior-none", "no-steps"])
def test_fence_path_checks_its_entries(steps, interiors, error):
    lift = HLift(FencePath(("a", "b"), ("b",)), F(1, 4))
    assert eval_path(lift, F(1, 2)) == CylPoint("b", F(1, 4))
    with pytest.raises(error):
        FencePath(steps, interiors)


def test_vertical_path_takes_a_string_element():
    with pytest.raises(TypeError, match="ground element must be a string"):
        VerticalAffine(["a"], F(0), F(1, 2))


def test_a_point_is_not_a_path():
    with pytest.raises(TypeError, match=r"^not a path expression: \(a,1/2\)$"):
        path_table(CylPoint("a", F(1, 2)))


def test_make_fence_path_rejects_incomparable():
    discrete = fz_generate_topology(
        [fz_indicator(["a"], AB), fz_indicator(["b"], AB)], AB)
    relation = specialization_preorder(discrete)
    with pytest.raises(ValueError):
        make_fence_path(("a", "b"), relation)


def test_functor_object_path_examples():
    gs = ground("y", "z")
    F_set = FuzzySet.from_dict(gs, {"y": F(1, 4), "z": F(0)})
    path = functor_object_path(F_set, "y", "z", F(1, 2))
    assert path_start(path) == CylPoint("z", F(3, 8))
    assert path_end(path) == CylPoint("z", F(1, 8))

    half = FuzzySet.constant(gs, F(1, 2))
    const = functor_object_path(half, "y", "z", F(1, 2))
    assert const.a0 == const.a1 == F(1, 4)

    zero = functor_object_path(F_set, "y", "z", 0)
    assert zero.a0 == zero.a1 == F(0)


def test_normalize_path_pushes_reverse():
    gamma = VerticalAffine("x", F(0), F(1, 2))
    e1 = Reverse(HTransform(F(1, 3), gamma))
    e2 = HTransform(F(1, 3), Reverse(gamma))
    assert normalize_path(e1) == normalize_path(e2)
    assert normalize_path(Reverse(Reverse(gamma))) == normalize_path(gamma)


def test_normal_form_merges_pass_through_breakpoints():
    p = CylPoint("a", F(1, 3))
    assert normalize_path(Concat((Const(p), Const(p)))) == normalize_path(Const(p))
    # a straight segment split in two is the segment
    halves = Concat((VerticalAffine("a", F(0), F(1, 4)),
                     VerticalAffine("a", F(1, 4), F(1, 2))))
    assert normalize_path(halves) == normalize_path(VerticalAffine("a", F(0), F(1, 2)))


def test_normal_form_is_reduced_to_the_smallest_denominator():
    # equal maps whose compiled tables carry different denominators
    third = Const(CylPoint("a", F(1, 3)))
    half = Const(CylPoint("a", F(1, 2)))
    pairs = [
        (Concat((third, third)), third),
        (HTransform(F(1, 3), Const(CylPoint("a", F(3, 4)))), half),
        (Concat((VerticalAffine("a", F(0), F(1, 3)), VerticalAffine("a", F(1, 3), F(2, 3)))),
         VerticalAffine("a", F(0), F(2, 3))),
        (Reverse(HTransform(F(2, 3), VerticalAffine("a", F(3, 5), F(0)))),
         VerticalAffine("a", F(0), F(1, 5))),
    ]
    for merged, plain in pairs:
        assert path_table(merged).den != path_table(plain).den
        assert normalize_path(merged) == normalize_path(plain)
        assert normalize_path(merged).den == path_table(plain).den


def test_normal_form_keeps_a_breakpoint_the_path_leaves():
    # b on both segments, a only at u = 1/2
    dip = HLift(FencePath(("b", "a", "b"), ("b", "b")), F(1, 4))
    flat = Const(CylPoint("b", F(1, 4)))
    assert eval_path(dip, F(1, 2)) != eval_path(flat, F(1, 2))
    assert all(eval_path(dip, u) == eval_path(flat, u)
               for u in (F(0), F(1, 3), F(2, 3), F(1)))
    assert normalize_path(dip) != normalize_path(flat)


def test_chi_boundary_end_is_the_integer_0_or_1():
    rho = Const(CylPoint("a", F(1, 2)))
    assert ChiBoundary(rho, F(0), F(1, 2), 1).end == 1
    # the node checks its end when built
    for end in (1.7, 1.0, "1", True, False, 2, -1, None):
        with pytest.raises(ValueError, match="end must be the integer 0 or 1"):
            ChiBoundary(rho, F(0), F(1, 2), end)


def test_random_paths_match_endpoint_threading():
    rng = random.Random(10)
    for _ in range(20):
        topo = random_topology(rng, max_generators=2, max_den=6)
        start = CylPoint(topo.ground.elements[0], F(1, 8))
        path = random_path(rng, topo, start=start)
        assert path_start(path) == start


# ---------------------------------------------------------------------------
# the recursive semantics the compiled table replaced, kept as references


def _binary_concat_eval(parts, u):
    # left-nested: (p1 * ... * p_{n-1}) * p_n
    if len(parts) == 1:
        return reference_eval(parts[0], u)
    if u <= F(1, 2):
        return _binary_concat_eval(parts[:-1], 2 * u)
    return reference_eval(parts[-1], 2 * u - 1)


def reference_eval(e, u):
    if isinstance(e, Const):
        return e.point
    if isinstance(e, VerticalAffine):
        return CylPoint(e.x, e.a0 + (e.a1 - e.a0) * u)
    if isinstance(e, HLift):
        # fence segment i covers [i/k, (i+1)/k]; a breakpoint takes the
        # right segment's start, the open interior its representative
        steps, k = e.base.steps, len(e.base.steps) - 1
        if k == 0 or u == 1:
            return CylPoint(steps[-1], e.level)
        i = int(u * k)
        return CylPoint(steps[i] if u * k == i else e.base.interiors[i], e.level)
    if isinstance(e, Concat):
        return _binary_concat_eval(e.parts, u)
    if isinstance(e, Reverse):
        return reference_eval(e.inner, 1 - u)
    if isinstance(e, HTransform):
        return h_eval(e.t, reference_eval(e.inner, u))
    anchor = reference_eval(e.rho, F(e.end))
    return h_eval(kappa(e.s, e.t, u), anchor)


def reference_chi_boundary(e):
    anchor = reference_eval(e.rho, F(e.end))
    return VerticalAffine(anchor.x, (1 - e.s) * anchor.alpha,
                          (1 - e.t) * anchor.alpha)


def reference_contributions(e, scale):
    """Closed level ranges (element, lo, hi) covering the image."""
    if isinstance(e, Const):
        v = scale * e.point.alpha
        return [(e.point.x, v, v)]
    if isinstance(e, VerticalAffine):
        return [(e.x, scale * min(e.a0, e.a1), scale * max(e.a0, e.a1))]
    if isinstance(e, HLift):
        v = scale * e.level
        return [(x, v, v) for x in set(e.base.steps) | set(e.base.interiors)]
    if isinstance(e, Concat):
        return [c for part in e.parts for c in reference_contributions(part, scale)]
    if isinstance(e, Reverse):
        return reference_contributions(e.inner, scale)
    if isinstance(e, HTransform):
        return reference_contributions(e.inner, scale * (1 - e.t))
    return reference_contributions(reference_chi_boundary(e), scale)


def reference_in_open(e, open_set):
    return all(iv_subset(make_interval(lo, hi, True, True), open_set.fiber(x))
               for x, lo, hi in reference_contributions(e, F(1)))


def _affine_preimage(a0, a1, fiber):
    slope = a1 - a0
    if slope == 0:
        return make_unit_interval(0, 1, True, True) if fiber.contains(a0) else EMPTY_SET
    pieces = []
    for part in parts(fiber):
        u1, u2 = (part.lo - a0) / slope, (part.hi - a0) / slope
        if slope > 0:
            lo, hi, lo_closed, hi_closed = u1, u2, part.lo_closed, part.hi_closed
        else:
            lo, hi, lo_closed, hi_closed = u2, u1, part.hi_closed, part.lo_closed
        if hi < 0 or lo > 1:
            continue
        if lo < 0:
            lo, lo_closed = F(0), True
        if hi > 1:
            hi, hi_closed = F(1), True
        pieces.extend(interval(lo, hi, lo_closed, hi_closed))
    return build(pieces)


def _scale_fiber_preimage(fiber, c):
    """{beta in [0,1) : c * beta in fiber}."""
    if c == 0:
        return make_interval(0, 1, True, False) if fiber.contains(F(0)) else EMPTY_SET
    pieces = []
    for part in parts(fiber):
        lo, hi = part.lo / c, part.hi / c
        hi_closed = part.hi_closed
        if lo >= 1:
            continue
        if hi > 1:
            hi, hi_closed = F(1), False
        pieces.extend(interval(lo, hi, part.lo_closed, hi_closed and hi != 1))
    return build(pieces)


def _shift(params, a, b):
    """Map a parameter set through u -> a + (b - a) u."""
    return [q for p in parts(params)
            for q in interval(a + (b - a) * p.lo, a + (b - a) * p.hi,
                              p.lo_closed, p.hi_closed)]


def reference_preimage(e, open_set):
    if isinstance(e, Const):
        contained = open_set.fiber(e.point.x).contains(e.point.alpha)
        return make_unit_interval(0, 1, True, True) if contained else EMPTY_SET
    if isinstance(e, VerticalAffine):
        return _affine_preimage(e.a0, e.a1, open_set.fiber(e.x))
    if isinstance(e, HLift):
        fence, k = e.base, len(e.base.steps) - 1
        member = {x: open_set.fiber(x).contains(e.level)
                  for x in set(fence.steps) | set(fence.interiors)}
        if k == 0:
            return (make_unit_interval(0, 1, True, True)
                    if member[fence.steps[0]] else EMPTY_SET)
        pieces = []
        for i in range(k):
            lo, hi = F(i, k), F(i + 1, k)
            if member[fence.steps[i]]:
                pieces.extend(interval(lo, lo, True, True))
            if member[fence.interiors[i]]:
                pieces.extend(interval(lo, hi, False, False))
        if member[fence.steps[-1]]:
            pieces.extend(interval(F(1), F(1), True, True))
        return build(pieces)
    if isinstance(e, Concat):
        left = e.parts[:-1]
        inner = left[0] if len(left) == 1 else Concat(left)
        return build(_shift(reference_preimage(e.parts[-1], open_set), F(1, 2), F(1))
                     + _shift(reference_preimage(inner, open_set), F(0), F(1, 2)))
    if isinstance(e, Reverse):
        inner = reference_preimage(e.inner, open_set)
        return build(q for p in parts(inner)
                     for q in interval(1 - p.hi, 1 - p.lo, p.hi_closed, p.lo_closed))
    if isinstance(e, HTransform):
        scaled = CylinderOpen(open_set.ground,
                              tuple(_scale_fiber_preimage(f, 1 - e.t)
                                    for f in open_set.fibers))
        return reference_preimage(e.inner, scaled)
    return reference_preimage(reference_chi_boundary(e), open_set)


def key(p):
    """A point as the exact key (x, n, d) of its level n/d in lowest terms."""
    return p.x, p.alpha.numerator, p.alpha.denominator


def test_compiled_table_matches_recursive_reference(monkeypatch):
    # the references recompute each subtree for every target and point, and
    # again under Reverse(path), and kappa each (s, t, x) for every u; they
    # are pure, so each (node, target), (node, u) and (s, t, x) is computed
    # once for this test
    for name in ("reference_eval", "reference_preimage", "kappa"):
        monkeypatch.setitem(globals(), name, cache(globals()[name]))
    rng = random.Random(1)
    # homotopy times come from their own stream, so the paths are the
    # 300 draws of Random(1)
    times = random.Random(4)
    grid = [F(k, 64) for k in range(65)]
    coarse = [F(k, 8) for k in range(9)]
    for _ in range(300):
        topo = random_topology(rng, max_generators=2, max_den=6)
        path = random_path(rng, topo)
        targets = [subbasis_realize(e, topo) for e in subbasis_elements(topo)]
        # random_path nests reversals only in pairs, so add a single one
        for expr in (path, Reverse(path)):
            s, t = times.choice(coarse), times.choice(coarse)
            for k, u in enumerate(grid):
                expected = reference_eval(expr, u)
                assert eval_path(expr, u) == expected, (expr, u)
                assert eval_keys(expr, (u,)) == [key(expected)], (expr, u)
                # the square homotopy at eta = u, on every 32nd x of the grid
                xs = grid[k % 32::32]
                assert chi_keys(expr, s, t, (u,), xs) == \
                    [[key(h_eval(kappa(s, t, x), expected)) for x in xs]], (expr, s, t, u)
            for target in targets:
                assert path_preimage(expr, target) == reference_preimage(expr, target), \
                    (expr, target)
                assert path_in_open(expr, target) == reference_in_open(expr, target), \
                    (expr, target)


def test_compiled_node_keeps_value_semantics():
    rng = random.Random(2)
    for _ in range(20):
        topo = random_topology(rng, max_generators=2, max_den=6)
        state = rng.getstate()
        path = random_path(rng, topo)
        rng.setstate(state)
        fresh = random_path(rng, topo)
        digest, text = hash(path), repr(path)
        eval_path(path, F(1, 3))
        assert path_table(path) is path_table(path)
        assert path == fresh and fresh == path
        assert hash(path) == digest == hash(fresh)
        assert repr(path) == text
        assert len({path, fresh}) == 1
