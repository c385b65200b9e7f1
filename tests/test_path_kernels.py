"""The row kernels ``eval_keys`` and ``chi_keys`` against the one-point
evaluation they replaced, the endpoints read off the table against
evaluation at 0 and 1, and the row-wise identity battery against the
point-by-point loops it replaced.

Both references below are kept as they were before the kernels: one table
lookup, range check and bisection per point, and loops that stop at the
first mismatching point.  They read the same compiled tables as the
library, so a fault planted in a table reaches both sides alike.

Mutated kernels these tests catch, each tried on its own: an off-by-one in
the x numerator of ``1 - kappa(s,t)(x)``, ``s`` and ``t`` swapped, the eta
rows returned in the wrong order, ``bisect_right`` for ``bisect_left``,
``first_difference`` reporting the grid value after the mismatch, the
pasting halves swapped, the ``fhrem`` left and right columns swapped, the
floor of p·den/q for its ceiling as the bisection target, the level check
dropped from either kernel's loop, the reduction skipped in ``chi_keys``,
and a table lookup made before every value of the row is checked.

Mutated battery routes caught, likewise: in the integer path-res route,
kn for kd - kn, the gcd dropped, gamma evaluated at the coarse grid for
the restricted parameters, and kappa's s and t swapped; the time-s node
of gamma built at time t; and, in ``paths``, ``path_end`` or
``path_start`` reading the wrong point of the table, its level over
den + 1, and the anchors of ``chi_boundary`` swapped.
"""

import random
import sys
from bisect import bisect_left
from fractions import Fraction
from math import gcd

import pytest

from fuzzcyl import checks, paths
from fuzzcyl.cylinder import CylPoint
from fuzzcyl.paths import (
    ChiBoundary,
    Concat,
    Const,
    FencePath,
    HLift,
    HTransform,
    Reverse,
    VerticalAffine,
    chi_keys,
    eval_keys,
    eval_path,
    kappa,
    normalize_path,
    path_end,
    path_start,
    path_table,
)
from fuzzcyl.rationals import ONE, ZERO, frac, unit
from fuzzcyl.retraction import h_eval
from fuzzcyl.sweeps import random_path, random_topology

F = Fraction
FINE = [F(k, 64) for k in range(65)]
COARSE = [F(k, 8) for k in range(9)]


# ---------------------------------------------------------------------------
# the one-point evaluation the kernels replaced


def ref_locate(e, u):
    p, q = unit(frac(u), "path parameter").as_integer_ratio()
    table = path_table(e)
    d = table.den
    j = bisect_left(table.breaks, p * d, key=q.__mul__)
    if table.breaks[j] * q == p * d:
        x, a = table.points[j]
        return x, a, d
    x, c0, c1 = table.pieces[j - 1]
    return x, c0 * q + c1 * p, d * q


def ref_key(x, n, d):
    if not 0 <= n < d:
        raise ValueError(f"level outside [0,1): {Fraction(n, d)}")
    g = gcd(n, d)
    return x, n // g, d // g


def ref_eval_key(e, u):
    return ref_key(*ref_locate(e, u))


def ref_chi_key(rho, s, t, eta, x):
    sn, sd = unit(frac(s), "kappa argument").as_integer_ratio()
    tn, td = unit(frac(t), "kappa argument").as_integer_ratio()
    xn, xd = unit(frac(x), "kappa argument").as_integer_ratio()
    y, n, d = ref_locate(rho, eta)
    keep = (sd - sn) * td * xd - (tn * sd - sn * td) * xn
    return ref_key(y, keep * n, sd * td * xd * d)


def ref_chi_eval(rho, s, t, eta, x):
    y, n, d = ref_chi_key(rho, s, t, eta, x)
    return CylPoint(y, Fraction(n, d))


def node_kinds(e):
    """The node classes of a path expression tree."""
    inner = {Concat: lambda: e.parts, Reverse: lambda: (e.inner,),
             HTransform: lambda: (e.inner,), ChiBoundary: lambda: (e.rho,)}
    children = inner.get(type(e), tuple)()
    return {type(e)}.union(*(node_kinds(c) for c in children))


def differential_paths():
    """Seeded ``random_path`` draws, each also under a single reversal, a
    homotopy transform and a boundary path of its square homotopy."""
    rng, times = random.Random(31), random.Random(32)
    for _ in range(60):
        topo = random_topology(rng, max_generators=2, max_den=6)
        path = random_path(rng, topo)
        t = times.choice(COARSE)
        yield path
        yield Reverse(path)
        yield HTransform(t, path)
        yield ChiBoundary(path, times.choice(COARSE), t, times.choice((0, 1)))


def parameter_lists(rng):
    """Sorted, shuffled and repeated grids, the endpoints alone, and mixed
    ints, Fractions off the grid and "p/q" strings."""
    shuffled = rng.sample(FINE, len(FINE))
    return [
        FINE,
        shuffled,
        shuffled[:7] + shuffled[:7] + [F(1, 2)] * 3,
        [1, 0, ONE, ZERO, 1],
        ["1/3", "0", 1, "5/7", F(2, 7), "1", 0, F(63, 64), "1/64"],
    ]


def test_kernels_match_the_one_point_reference():
    rng = random.Random(33)
    kinds = set()
    for path in differential_paths():
        kinds |= node_kinds(path)
        lists = parameter_lists(rng)
        for us in lists:
            assert eval_keys(path, us) == [ref_eval_key(path, u) for u in us], (path, us)
        s, t = rng.choice(COARSE + ["1/3", 1]), rng.choice(COARSE + ["2/3", 0])
        etas = rng.choice(lists)
        for xs in (COARSE, rng.choice(lists)):
            assert chi_keys(path, s, t, etas, xs) == \
                [[ref_chi_key(path, s, t, eta, x) for x in xs] for eta in etas], \
                (path, s, t, etas, xs)
        # one-cell rows, as ``eval_path`` and ``chi_eval`` call the kernels
        u, x = rng.choice(FINE), rng.choice(["1/3", F(1, 5), 1])
        assert eval_keys(path, (u,)) == [ref_eval_key(path, u)]
        assert chi_keys(path, s, t, (u,), (x,)) == [[ref_chi_key(path, s, t, u, x)]]
        assert paths.chi_eval(path, s, t, u, x) == ref_chi_eval(path, s, t, u, x)
    assert kinds >= {Const, Concat, Reverse, HTransform, ChiBoundary}


def test_kernels_take_iterators_and_empty_rows():
    path = next(differential_paths())
    assert eval_keys(path, iter(FINE)) == eval_keys(path, FINE)
    assert chi_keys(path, 0, 1, iter(COARSE), reversed(FINE)) == \
        chi_keys(path, 0, 1, COARSE, FINE[::-1])
    assert eval_keys(path, []) == []
    assert chi_keys(path, 0, 1, [], FINE) == []
    assert chi_keys(path, 0, 1, COARSE, []) == [[] for _ in COARSE]


# ---------------------------------------------------------------------------
# the kernels' errors, and parameters with long denominators


def test_kernel_errors_name_the_first_bad_argument():
    start = Const(CylPoint("a", ZERO))
    cases = [
        (lambda: eval_keys(start, [F(1, 2), F(3, 2)]), "path parameter outside [0,1]: 3/2"),
        # chi_keys checks s and t, then the xs, then the etas
        (lambda: chi_keys(start, 2, -1, [2], [3]), "kappa argument outside [0,1]: 2"),
        (lambda: chi_keys(start, 0, -1, [2], [3]), "kappa argument outside [0,1]: -1"),
        (lambda: chi_keys(start, 0, 0, [2], [3]), "kappa argument outside [0,1]: 3"),
        (lambda: chi_keys(start, 0, 0, [2], [0]), "path parameter outside [0,1]: 2"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message
    with pytest.raises(TypeError, match="cannot interpret 0.5 as an exact rational"):
        eval_keys(start, [F(1, 2), 0.5])


def _unreadable(table):
    """The table with no points and no pieces: every lookup raises IndexError."""
    return paths.PathTable(table.den, table.breaks, (), ())


def test_every_value_is_checked_before_any_lookup(monkeypatch):
    compile_table = paths._compile
    monkeypatch.setattr(paths, "_compile", lambda e: _unreadable(compile_table(e)))
    path = VerticalAffine("a", ZERO, F(1, 2))
    with pytest.raises(ValueError, match="path parameter outside"):
        eval_keys(path, [F(1, 2), 2])
    with pytest.raises(ValueError, match="path parameter outside"):
        chi_keys(path, 0, 1, [F(1, 2), 2], [0])
    with pytest.raises(IndexError):
        eval_keys(path, [F(1, 2)])


def _tripled(table):
    """Every level times 3: u -> 3u/2 on the table of u -> u/2."""
    return paths.PathTable(table.den, table.breaks,
                           tuple((x, 3 * a) for x, a in table.points),
                           tuple((x, 3 * c0, 3 * c1) for x, c0, c1 in table.pieces))


def _lowered(table):
    """Every level less 1: u -> u/2 - 1 on the table of u -> u/2."""
    den = table.den
    return paths.PathTable(den, table.breaks,
                           tuple((x, a - den) for x, a in table.points),
                           tuple((x, c0 - den, c1) for x, c0, c1 in table.pieces))


# (plant, first bad level of eval_keys on ROW, of chi_keys on the etas 0
# and 3/4 and XS); 1 - kappa(0,1)(x) = 1 - x scales each row of chi_keys:
# tripled, the levels on ROW are 0, 3/4, 9/8, 3/2 and the row of 9/8 is
# 0, 9/16, 135/128, 9/8; lowered, the row of -1 is 0, -1/2, -15/16, -1
PLANTED_LEVELS = {"above": (_tripled, "9/8", "135/128"),
                  "below": (_lowered, "-1", "-1/2")}
ROW = [0, F(1, 2), F(3, 4), 1]
XS = [1, F(1, 2), F(1, 16), 0]


@pytest.mark.parametrize("where", list(PLANTED_LEVELS))
def test_a_level_outside_J_is_named_at_the_first_bad_cell(where, monkeypatch):
    plant, eval_level, chi_level = PLANTED_LEVELS[where]
    compile_table = paths._compile
    monkeypatch.setattr(paths, "_compile", lambda e: plant(compile_table(e)))
    path = VerticalAffine("a", ZERO, F(1, 2))
    with pytest.raises(ValueError) as caught:
        eval_keys(path, ROW)
    assert str(caught.value) == f"level outside [0,1): {eval_level}"
    with pytest.raises(ValueError) as caught:
        chi_keys(path, 0, 1, [0, F(3, 4)], XS)
    assert str(caught.value) == f"level outside [0,1): {chi_level}"


# ---------------------------------------------------------------------------
# the endpoints read off the table against evaluation at 0 and 1


def test_endpoints_are_the_evaluations_at_0_and_1():
    """On 1,000 ``random_path`` draws, 10 on each of 100 topologies, each
    also under a reversal, a homotopy transform and a boundary path."""
    rng, times = random.Random(35), random.Random(36)
    for _ in range(100):
        topo = random_topology(rng, max_generators=2, max_den=6)
        for _ in range(10):
            path = random_path(rng, topo)
            t = times.choice(COARSE)
            for e in (path, Reverse(path), HTransform(t, path),
                      ChiBoundary(path, times.choice(COARSE), t, times.choice((0, 1)))):
                assert path_start(e) == eval_path(e, 0), e
                assert path_end(e) == eval_path(e, 1), e


def _outcome(call):
    """What ``call()`` returns, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as error:
        return str(error)


# (plant, start outcome, end outcome) on the table of u -> u/2
PLANTED_ENDS = {"above": (_tripled, CylPoint("a", ZERO), "level outside [0,1): 3/2"),
                "below": (_lowered, "level outside [0,1): -1", "level outside [0,1): -1/2")}


@pytest.mark.parametrize("where", list(PLANTED_ENDS))
def test_an_end_level_outside_J_raises_alike_on_both_routes(where, monkeypatch):
    plant, start, end = PLANTED_ENDS[where]
    compile_table = paths._compile
    monkeypatch.setattr(paths, "_compile", lambda e: plant(compile_table(e)))
    path = VerticalAffine("a", ZERO, F(1, 2))
    assert _outcome(lambda: path_start(path)) == _outcome(lambda: eval_path(path, 0)) == start
    assert _outcome(lambda: path_end(path)) == _outcome(lambda: eval_path(path, 1)) == end


def long_denominator_paths(rng):
    """Paths whose tables have denominators of 40 digits and more: levels
    over 20- to 30-digit denominators, each piece with its own slope or
    element, so that neighbouring pieces differ."""
    def level():
        q = rng.randrange(10**19, 10**30)
        return F(rng.randrange(q), q)

    for _ in range(12):
        l0, l1, l2, l3 = (level() for _ in range(4))
        fence = HLift(FencePath(("a", "b", "a"), ("b", "b")), l2)
        path = Concat((VerticalAffine("a", l0, l1), VerticalAffine("a", l1, l2), fence,
                       VerticalAffine("a", l2, l3)))
        yield path
        yield Reverse(path)
        yield HTransform(level(), path)


def around_breakpoints(table, rng):
    """Each breakpoint b/den of ``table``, and the parameters 1/(den·Q)
    below and above it, with Q of 20 to 30 digits."""
    us = []
    for b in table.breaks:
        q = rng.randrange(10**19, 10**30)
        us.append(F(b, table.den))
        if b > 0:
            us.append(F(b * q - 1, table.den * q))
        if b < table.den:
            us.append(F(b * q + 1, table.den * q))
    return us


def test_long_denominators_on_and_next_to_breakpoints():
    rng = random.Random(34)
    on = near = 0
    for path in long_denominator_paths(rng):
        table = path_table(path)
        assert table.den > 10**40
        us = around_breakpoints(table, rng)
        assert eval_keys(path, us) == [ref_eval_key(path, u) for u in us], path
        s, t = rng.choice(us), rng.choice(us)
        xs = [0, 1, rng.choice(us)]
        assert chi_keys(path, s, t, us, xs) == \
            [[ref_chi_key(path, s, t, u, x) for x in xs] for u in us], path
        on += sum(F(b, table.den) in us for b in table.breaks)
        near += len(us) - len(table.breaks)
    assert on >= 36 * 6 and near >= 36 * 10, (on, near)


# ---------------------------------------------------------------------------
# the point-by-point battery the row-wise one replaced


def ref_pasting_failure(gamma, delta, s, t, grid):
    combined = Concat((gamma, delta))
    for eta in grid:
        part, local = (gamma, 2 * eta) if 2 * eta <= ONE else (delta, 2 * eta - 1)
        for x in grid:
            if ref_chi_key(combined, s, t, eta, x) != ref_chi_key(part, s, t, local, x):
                return eta, x
    return None


def ref_path_identity_failures(case, fine, coarse):
    _, gamma, s, t, parts, a, b, point, delta = case
    failures = []

    e1 = Reverse(HTransform(t, gamma))
    e2 = HTransform(t, Reverse(gamma))
    if normalize_path(e1) != normalize_path(e2):
        failures.append(("hginv-normal-form",))
    for u in fine:
        if ref_eval_key(e1, u) != ref_eval_key(e2, u):
            failures.append(("hginv", u))
            break

    whole = HTransform(t, Concat(parts))
    piecewise = Concat(tuple(HTransform(t, p) for p in parts))
    if normalize_path(whole) != normalize_path(piecewise):
        failures.append(("ast-com-normal-form",))
    for u in fine:
        if ref_eval_key(whole, u) != ref_eval_key(piecewise, u):
            failures.append(("ast-com-comp", u))
            break

    for eta in coarse:
        for x, flipped in zip(fine, reversed(fine)):
            if ref_chi_key(gamma, s, t, eta, x) != ref_chi_key(gamma, t, s, eta, flipped):
                failures.append(("v-inv", eta, x))
                break

    left, right = HTransform(s, gamma), HTransform(t, gamma)
    for eta in fine:
        if ref_chi_key(gamma, s, t, eta, ZERO) != ref_eval_key(left, eta):
            failures.append(("fhrem-left", eta))
            break
        if ref_chi_key(gamma, s, t, eta, ONE) != ref_eval_key(right, eta):
            failures.append(("fhrem-right", eta))
            break

    for eta in coarse:
        for x in coarse:
            lhs = ref_chi_eval(gamma, s, t, a + eta * (b - a), x)
            rhs = h_eval(kappa(s, t, x), eval_path(gamma, a + eta * (b - a)))
            if lhs != rhs:
                failures.append(("path-res", eta, x))
                break

    const = Const(point)
    base = ref_chi_eval(const, s, t, ZERO, Fraction(1, 3))
    for eta in coarse:
        if ref_chi_eval(const, s, t, eta, Fraction(1, 3)) != base:
            failures.append(("constant", eta))
            break

    mismatch = ref_pasting_failure(gamma, delta, s, t, coarse)
    if mismatch is not None:
        failures.append(("pasting", *mismatch))

    p = ChiBoundary(gamma, s, t, 0)
    q = ChiBoundary(gamma, s, t, 1)
    composite = Concat((Reverse(p), HTransform(s, gamma), q))
    lifted = HTransform(t, gamma)
    if path_start(composite) != path_start(lifted):
        failures.append(("relative-endpoints-start",))
    if path_end(composite) != path_end(lifted):
        failures.append(("relative-endpoints-end",))

    return failures


def _primed(table):
    """Every open piece moved to a primed element; the points are kept, so
    concatenations still join."""
    return paths.PathTable(table.den, table.breaks, table.points,
                           tuple((x + "'", c0, c1) for x, c0, c1 in table.pieces))


def _primed_end(table):
    """The end point moved to a primed element."""
    x, a = table.points[-1]
    return paths.PathTable(table.den, table.breaks, table.points[:-1] + ((x + "'", a),),
                           table.pieces)


def _spiked(table):
    """The same map at every parameter but 1/(128 den), which lies strictly
    inside the first piece and off the fine grid, and where the path takes
    a primed point: the rows see no change, the normal form does."""
    m = 128
    (x, a), *points = table.points
    (y, c0, c1), *pieces = table.pieces
    return paths.PathTable(
        table.den * m, (0, 1, *(b * m for b in table.breaks[1:])),
        ((x, a * m), (y + "'", c0 * m), *((z, b * m) for z, b in points)),
        tuple((z, d0 * m, d1 * m) for z, d0, d1 in [(y, c0, c1), (y, c0, c1), *pieces]))


def _hginv_lhs(e, g, s, t):
    return isinstance(e, Reverse) and isinstance(e.inner, HTransform) and e.inner.inner is g


def _ast_com_whole(e, g, s, t):
    return isinstance(e, HTransform) and isinstance(e.inner, Concat) and e.inner.parts[0] is g


# Each planted fault is (table fault, grid fault, route fault), keyed by
# the identity it breaks.  A table fault is a predicate on (node, gamma, s,
# t) and a rewrite of the compiled table of a matching node: ``_primed``
# breaks the values between the points, ``_primed_end`` an end point and
# ``_spiked`` the normal form alone.  The grid fault moves one value of the
# fine grid off the mirror image of its partner.  The route fault swaps s
# and t in the kappa of the independent path-res route.
FAULTS = {
    "hginv": ((_hginv_lhs, _primed), False, False),
    "hginv-normal-form": ((_hginv_lhs, _spiked), False, False),
    "ast-com-comp": ((_ast_com_whole, _primed), False, False),
    "ast-com-normal-form": ((_ast_com_whole, _spiked), False, False),
    "v-inv": (None, True, False),
    "fhrem-left": ((lambda e, g, s, t: isinstance(e, HTransform) and e.inner is g
                    and e.t == s != t, _primed), False, False),
    "fhrem-right": ((lambda e, g, s, t: isinstance(e, HTransform) and e.inner is g
                     and e.t == t != s, _primed), False, False),
    "path-res": (None, False, True),
    # the battery's constant path, drawn after gamma
    "constant": ((lambda e, g, s, t: isinstance(e, Const) and g is not None, _primed),
                 False, False),
    "pasting": ((lambda e, g, s, t: isinstance(e, Concat) and len(e.parts) == 2
                 and e.parts[0] is g, _primed), False, False),
    # the composite starts where the reversed boundary path at 0 ends
    "relative-endpoints-start": ((lambda e, g, s, t: isinstance(e, ChiBoundary)
                                  and e.rho is g and e.end == 0, _primed_end), False, False),
    "relative-endpoints-end": ((lambda e, g, s, t: isinstance(e, ChiBoundary)
                                and e.rho is g and e.end == 1, _primed_end), False, False),
}


@pytest.mark.parametrize("identity", list(FAULTS))
def test_row_battery_reports_the_point_by_point_records(identity, monkeypatch):
    table_fault, skew_grid, swap_route = FAULTS[identity]
    fine = list(FINE)
    if skew_grid:
        fine[3] = F(5, 128)
    if swap_route:
        def swapped(s, t, x):
            return paths.kappa(t, s, x)
        monkeypatch.setattr(checks, "kappa", swapped)
        monkeypatch.setattr(sys.modules[__name__], "kappa", swapped)
    # the case under test, (gamma, s, t); none while it is being drawn
    case = [None, None, None]
    if table_fault is not None:
        compile_table = paths._compile
        matches, rewrite = table_fault

        def faulty(e):
            table = compile_table(e)
            return rewrite(table) if matches(e, *case) else table

        monkeypatch.setattr(paths, "_compile", faulty)
    hits = 0
    for seed in range(24):
        case[:] = None, None, None
        drawn = next(checks._path_cases(random.Random(900 + seed), 1, COARSE))
        case[:] = drawn.gamma, drawn.s, drawn.t
        rows = checks._path_identity_failures(drawn, fine, COARSE)
        points = ref_path_identity_failures(drawn, fine, COARSE)
        assert rows == points, (seed, drawn.gamma, drawn.s, drawn.t)
        hits += any(f[0] == identity for f in rows)
    # the battery can still fail: the planted fault shows in most cases
    assert hits >= 12, hits


def test_battery_is_clean_without_a_fault():
    for seed in range(24):
        drawn = next(checks._path_cases(random.Random(900 + seed), 1, COARSE))
        assert checks._path_identity_failures(drawn, FINE, COARSE) == []


def test_constant_battery_names_a_moved_end_point(monkeypatch):
    """With the end point of the battery's constant path moved, its rows
    differ from the row at eta = 0 only at eta = 1."""
    drawn = next(checks._path_cases(random.Random(900), 1, COARSE))
    moved = Const(drawn.point)
    compile_table = paths._compile
    monkeypatch.setattr(paths, "_compile", lambda e: _primed_end(compile_table(e))
                        if e == moved else compile_table(e))
    rows = checks._path_identity_failures(drawn, FINE, COARSE)
    assert rows == ref_path_identity_failures(drawn, FINE, COARSE)
    assert ("constant", ONE) in rows
