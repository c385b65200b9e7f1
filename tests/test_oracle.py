import fractions
import itertools
import random
import sys
from fractions import Fraction

import pytest
from interval_ref import Interval, build, parts

from fuzzcyl.checks import OracleLedger, counterexample_report, sweep_sigma_laws
from fuzzcyl.cylinder import (
    CylinderOpen,
    OpenExpr,
    cyl_complement,
    empty_cylinder,
    open_realize,
    pi2,
    psi_star,
    subbasis_elements,
    subbasis_realize,
    tstar,
)
from fuzzcyl.fuzzy import FuzzySet, FuzzyTopology, fz_generate_topology, ground
from fuzzcyl.intervals import EMPTY_SET, canonical, iv_grid
from fuzzcyl.oracle import (
    GridOracle,
    expr_predicate,
    first_mismatch,
    oracle_rasterize,
    psi_predicate,
    set_complement_predicate,
    sigma_predicate,
    subbasis_predicate,
)
from fuzzcyl.retraction import sigma_image

F = Fraction
AB = ground("a", "b")


def test_rasterize_psi_third():
    raster = oracle_rasterize(psi_star(FuzzySet.constant(AB, F(1, 3))), 6)
    for x in ("a", "b"):
        assert [raster.cells[AB.index(x)][k] for k in range(6)] == \
            [True, True, False, False, False, False]


def test_rasterize_whole_and_empty():
    assert all(all(vec) for vec in oracle_rasterize(cyl_complement(empty_cylinder(AB)), 4).cells)
    assert not any(any(vec) for vec in oracle_rasterize(empty_cylinder(AB), 4).cells)


def test_rasterize_rejects_small_resolution():
    with pytest.raises(ValueError):
        oracle_rasterize(cyl_complement(empty_cylinder(AB)), 1)


@pytest.mark.parametrize("build, message", [
    (lambda: CylinderOpen(AB, (EMPTY_SET,)), "one fiber per ground element required"),
    (lambda: GridOracle(AB, 4, ((True,) * 4,)),
     "one cell vector per ground element required"),
    (lambda: GridOracle(AB, 4, ((True,) * 4, (True,) * 3)),
     "cell vector length must equal the resolution"),
], ids=["cylinder-fibers", "raster-rows", "raster-row-length"])
def test_cylinder_sets_and_rasters_check_their_shape(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_first_mismatch():
    below = psi_star(FuzzySet.constant(AB, F(1, 3)))
    assert first_mismatch(below, oracle_rasterize(below, 64)) is None
    corrupted = oracle_rasterize(below, 64)
    cells = [list(v) for v in corrupted.cells]
    cells[0][40] = not cells[0][40]
    bad = GridOracle(AB, 64, tuple(tuple(v) for v in cells))
    assert first_mismatch(below, bad) == ("a", F(40, 64))


# ---------------------------------------------------------------------------
# the key raster against the per-cell membership test it replaced

RESOLUTIONS = (2, 3, 7, 64, 100)
# every resolution gets endpoints on its grid (denominators that divide it)
# and off it (the others)
DENOMINATORS = (1, 2, 3, 4, 7, 9, 35, 64, 100)
XYZ = ground("x", "y", "z")


def reference_raster(c, resolution):
    return tuple(tuple(c.fiber(x).contains(Fraction(k, resolution))
                       for k in range(resolution))
                 for x in c.ground.elements)


def random_fiber(rng):
    """Up to three intervals with endpoints in [0,1), each flag pair drawn
    at random, and sometimes a closed point such as {0}."""
    pieces = []
    for _ in range(rng.randint(0, 3)):
        den = rng.choice(DENOMINATORS)
        lo, hi = sorted(Fraction(rng.randrange(den), den) for _ in range(2))
        if lo == hi or rng.random() < 0.15:
            pieces.append(Interval(lo, lo, True, True))
        else:
            pieces.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    if rng.random() < 0.2:
        pieces.append(Interval(Fraction(0), Fraction(0), True, True))
    return build(pieces)


def test_key_raster_matches_per_cell_membership():
    rng = random.Random(12_064)
    on_grid = {(n, closed): 0 for n in RESOLUTIONS for closed in (False, True)}
    for _ in range(300):
        c = CylinderOpen(XYZ, tuple(random_fiber(rng) for _ in XYZ.elements))
        for n in RESOLUTIONS:
            assert oracle_rasterize(c, n).cells == reference_raster(c, n)
            for fib in c.fibers:
                for p in parts(fib):
                    for q, closed in ((p.lo, p.lo_closed), (p.hi, p.hi_closed)):
                        if q < 1 and (q * n).denominator == 1:
                            on_grid[n, closed] += 1
    # every grid saw endpoints of both kinds fall on one of its cells
    assert min(on_grid.values()) > 0


@pytest.mark.parametrize("lo_closed, hi_closed",
                         list(itertools.product((False, True), repeat=2)))
def test_key_raster_flags_on_the_grid(lo_closed, hi_closed):
    """[1/4, 1/2] with each flag pair, and the point {0}, on grids that put
    both ends on a cell (4, 64, 100) and grids that miss them (3, 7)."""
    fib = build([Interval(Fraction(1, 4), Fraction(1, 2), lo_closed, hi_closed)])
    point = build([Interval(Fraction(0), Fraction(0), True, True)])
    c = CylinderOpen(AB, (fib, point))
    for n in (3, 4, 7, 64, 100):
        raster = oracle_rasterize(c, n)
        assert raster.cells == reference_raster(c, n)
        assert raster.cells[AB.index("b")][0] and not any(raster.cells[1][1:])
    raster = oracle_rasterize(c, 4)
    assert raster.cells[AB.index("a")][1:3] == (lo_closed, hi_closed)


# ---------------------------------------------------------------------------
# first mismatch and the ledger's failure records


def corrupt(raster, cells):
    rows = [list(v) for v in raster.cells]
    for i, k in cells:
        rows[i][k] = not rows[i][k]
    return GridOracle(raster.ground, raster.resolution, tuple(tuple(v) for v in rows))


def test_first_mismatch_reports_the_first_cell_in_ground_then_level_order():
    below = psi_star(FuzzySet.from_dict(AB, {"a": F(1, 3), "b": F(5, 8)}))
    honest = oracle_rasterize(below, 64)
    assert first_mismatch(below, corrupt(honest, [(1, 3), (0, 50), (0, 20), (1, 0)])) \
        == ("a", F(20, 64))
    assert first_mismatch(below, corrupt(honest, [(1, 63), (1, 40), (1, 41)])) \
        == ("b", F(40, 64))
    # only the second element is wrong, at its last cell
    assert first_mismatch(below, corrupt(honest, [(1, 63)])) == ("b", F(63, 64))


def at_most(f):
    """n/d <= f(x): psi_predicate with <= for <."""
    levels = f.ratios()
    return lambda x, n, d: n * levels[x][1] <= levels[x][0] * d


def test_ledger_reports_a_wrong_predicate_at_its_first_cell():
    """n/d <= f(x) differs from psi_star(f) exactly at the cell f(x), when
    f(x) lies on the grid: 1/2 does on the grid of 64 and 1/3 does not."""
    f = FuzzySet.from_dict(AB, {"a": F(1, 3), "b": F(1, 2)})
    ledger = OracleLedger()
    ledger.add("honest", psi_star(f), psi_predicate(f))
    ledger.add("wrong", psi_star(f), at_most(f))
    result = ledger.verify(64)
    assert result.checked == 2
    assert result.failures == [("wrong", "b", F(32, 64))]
    g = FuzzySet.from_dict(AB, {"a": F(1, 4), "b": F(1, 2)})
    ledger = OracleLedger()
    ledger.add("wrong", psi_star(g), at_most(g))
    assert ledger.verify(64).failures == [("wrong", "a", F(16, 64))]


# ---------------------------------------------------------------------------
# the key raster, pair by pair, against the bisection test of ``holds``

GRID_RESOLUTIONS = (2, 3, 7, 64, 65, 128)
KEY_DENOMINATORS = (1, 2, 3, 5, 7, 12, 64, 100, 129, 200)


def random_key_set(rng):
    """A canonical set of up to four random key pairs over a random
    denominator, in [0, 2·den + 1]: level sets and parameter sets closed at
    1; the first key is often 0 and the last often a top key."""
    den = rng.choice(KEY_DENOMINATORS)
    top = 2 * den + 1
    keys = set(rng.sample(range(top + 1), min(top + 1, 2 * rng.randint(1, 4))))
    if rng.random() < 0.3:
        keys.add(0)
    if rng.random() < 0.3:
        keys.add(rng.choice((top - 1, top)))
    keys = sorted(keys)[:len(keys) // 2 * 2]
    return canonical(den, zip(keys[::2], keys[1::2]))


def test_pairwise_raster_matches_holds_on_every_cell():
    rng = random.Random(19_128)
    seen = {"coarse": 0, "from-0": 0, "to-2den": 0, "to-2den+1": 0}
    for _ in range(2000):
        a = random_key_set(rng)
        if a.keys:
            seen["from-0"] += a.keys[0] == 0
            seen["to-2den"] += a.keys[-1] == 2 * a.den
            seen["to-2den+1"] += a.keys[-1] == 2 * a.den + 1
        for n in GRID_RESOLUTIONS:
            seen["coarse"] += n < a.den
            assert iv_grid(a, n) == tuple(a.holds(k, n) for k in range(n)), (a, n)
    assert min(seen.values()) >= 150, seen


# ---------------------------------------------------------------------------
# the integer predicates against their Fraction statements

AGREE_RESOLUTIONS = (2, 3, 7, 64)
LEVEL_DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 35, 64, 100)


def random_level(rng, include_one=True):
    den = rng.choice(LEVEL_DENOMINATORS)
    return F(rng.randint(0, den if include_one else den - 1), den)


def random_gamma(rng):
    """-1 one time in six, else a random rational in (-1, 1), four in ten
    of the nonzero ones negative."""
    if rng.random() < 1 / 6:
        return F(-1)
    g = random_level(rng, include_one=False)
    return -g if g and rng.random() < 0.4 else g


def agreement_topology(rng):
    """A topology generated by one or two random fuzzy sets, and the first."""
    gs = ground(*"abcd"[:rng.randint(1, 4)])
    gens = [FuzzySet(gs, tuple(random_level(rng) for _ in gs.elements))
            for _ in range(rng.randint(1, 2))]
    return fz_generate_topology(gens, gs), gens[0]


def statement(e, topo):
    """Membership in the subbasis open e, in Fractions."""
    if e.kind == "pi2":
        return lambda x, v: v > e.gamma
    f = topo.open_named(e.open_name)
    return lambda x, v: f(x) - v > e.gamma


def sigma_statement(e, topo):
    if e.kind == "pi2":
        return lambda x, v: v == 0
    f = topo.open_named(e.open_name)
    return lambda x, v: v == 0 and f(x) > e.gamma


def predicate_pairs(rng, topo, f):
    """(kind, integer predicate, Fraction statement, tie) for each kind on
    one topology and a fuzzy set f; tie(x, v) is true where the statement
    compares equal quantities, the cells a <= for < would change."""
    elems = [pi2(random_gamma(rng)) for _ in range(3)]
    elems += [tstar(rng.choice(topo.names), random_gamma(rng)) for _ in range(3)]
    out = [
        ("psi", psi_predicate(f), lambda x, v: v < f(x), lambda x, v: v == f(x)),
        ("set-complement", set_complement_predicate(f), lambda x, v: v >= f(x),
         lambda x, v: v == f(x)),
    ]
    for e in elems:
        if e.kind == "pi2":
            # the image of a pi2 open compares nothing: every level 0
            tie, sigma_tie = (lambda x, v, g=e.gamma: v == g), (lambda x, v: False)
        else:
            T = topo.open_named(e.open_name)
            tie = lambda x, v, g=e.gamma, T=T: T(x) - v == g
            sigma_tie = lambda x, v, g=e.gamma, T=T: v == 0 and T(x) == g
        out.append((e.kind, subbasis_predicate(e, topo), statement(e, topo), tie))
        out.append(("sigma", sigma_predicate(e, topo), sigma_statement(e, topo),
                    sigma_tie))
    clauses = tuple(tuple(rng.sample(elems, rng.randint(1, 3))) for _ in range(2))
    stated = [[statement(e, topo) for e in clause] for clause in clauses]
    out.append(("expr", expr_predicate(OpenExpr(clauses), topo),
                lambda x, v: any(all(s(x, v) for s in clause) for clause in stated),
                lambda x, v: False))
    return out, [e.gamma for e in elems]


def test_integer_predicates_match_fraction_statements_on_every_cell():
    rng = random.Random(19_064)
    cells = {kind: 0 for kind in ("psi", "set-complement", "pi2", "tstar",
                                  "sigma", "expr")}
    ties = dict.fromkeys(cells, 0)
    seen = {"off-grid-level": 0, "negative-gamma": 0, "gamma=-1": 0}
    for _ in range(200):
        topo, f = agreement_topology(rng)
        pairs, gammas = predicate_pairs(rng, topo, f)
        seen["negative-gamma"] += sum(g < 0 for g in gammas)
        seen["gamma=-1"] += gammas.count(-1)
        for n in AGREE_RESOLUTIONS:
            seen["off-grid-level"] += sum((v * n).denominator > 1 for v in f.levels)
            for kind, predicate, stated, tie in pairs:
                for x in topo.ground.elements:
                    for k in range(n):
                        v = F(k, n)
                        want = stated(x, v)
                        assert predicate(x, k, n) == want, (kind, x, v)
                        assert predicate(x, 3 * k, 3 * n) == want, (kind, x, v)
                        cells[kind] += 1
                        ties[kind] += tie(x, v)
    assert min(cells.values()) >= 10_000, cells
    assert min(ties[kind] for kind in ties if kind != "expr") >= 50, ties
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# a planted off-by-one in each kind of predicate fails the ledger

AB_T = FuzzyTopology(AB, ("empty", "whole", "T"),
                     (FuzzySet.constant(AB, 0), FuzzySet.constant(AB, 1),
                      FuzzySet.from_dict(AB, {"a": F(1, 2), "b": F(3, 4)})))
T_LEVELS = AB_T.open_named("T").ratios()


def planted_tstar(g, c):
    """T(x) - n/d >= g/c: subbasis_predicate's tstar test with >= for >."""
    def holds(x, n, d):
        a, b = T_LEVELS[x]
        return (a * d - n * b) * c >= g * b * d
    return holds


def planted_cases():
    """(kind, honest symbolic set, honest predicate, planted predicate,
    first cell where the two differ) on grids of 64."""
    T = AB_T.open_named("T")
    quarter = pi2(F(1, 4))
    quarter_below_T = tstar("T", F(1, 4))
    half = tstar("T", F(1, 2))
    below_T = tstar("T", F(0))
    expr = OpenExpr(((quarter, below_T),))
    honest_below_T = subbasis_predicate(below_T, AB_T)
    cases = [
        ("psi", psi_star(T), psi_predicate(T), at_most(T), ("a", F(32, 64))),
        ("set-complement", cyl_complement(psi_star(T)), set_complement_predicate(T),
         lambda x, n, d: n * T_LEVELS[x][1] > T_LEVELS[x][0] * d, ("a", F(32, 64))),
        ("pi2", subbasis_realize(quarter, AB_T), subbasis_predicate(quarter, AB_T),
         lambda x, n, d: n * 4 >= 1 * d, ("a", F(16, 64))),
        ("tstar", subbasis_realize(quarter_below_T, AB_T),
         subbasis_predicate(quarter_below_T, AB_T), planted_tstar(1, 4), ("a", F(16, 64))),
        ("sigma", sigma_image(subbasis_realize(half, AB_T)), sigma_predicate(half, AB_T),
         lambda x, n, d: n == 0 and planted_tstar(1, 2)(x, 0, 1), ("a", F(0))),
        # the clause's pi2 member planted, its tstar member honest
        ("expr", open_realize(expr, AB_T), expr_predicate(expr, AB_T),
         lambda x, n, d: n * 4 >= 1 * d and honest_below_T(x, n, d), ("a", F(16, 64))),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("kind, symbolic, honest, planted, cell", planted_cases())
def test_ledger_reports_a_planted_off_by_one(kind, symbolic, honest, planted, cell):
    ledger = OracleLedger()
    ledger.add("honest", symbolic, honest)
    ledger.add(kind, symbolic, planted)
    result = ledger.verify(64)
    assert result.checked == 2
    assert result.failures == [(kind, *cell)]


# ---------------------------------------------------------------------------
# a passing ledger runs in integers


def fraction_calls(ledger, resolution):
    """The ledger's result and the names of the functions of ``fractions``
    its verify called."""
    called = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            called.add(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        result = ledger.verify(resolution)
    finally:
        sys.setprofile(None)
    return result, called


def test_a_passing_ledger_calls_no_fraction_code():
    ledger = OracleLedger()
    counterexample_report(("x", "y"), ledger)
    sweep_sigma_laws(random.Random(19), 2, ledger)
    T = AB_T.open_named("T")
    for e in subbasis_elements(AB_T):
        ledger.add(e.kind, subbasis_realize(e, AB_T), subbasis_predicate(e, AB_T))
    expr = OpenExpr(((pi2(F(1, 4)), tstar("T", F(0))), (pi2(F(-1)),)))
    ledger.add("expr", open_realize(expr, AB_T), expr_predicate(expr, AB_T))
    ledger.add("psi", psi_star(T), psi_predicate(T))
    result, called = fraction_calls(ledger, 64)
    assert result.ok and result.checked == len(ledger.entries) > 20
    assert called == set()
    # the hook sees the Fraction a failure record builds
    ledger.add("wrong", psi_star(T), at_most(T))
    result, called = fraction_calls(ledger, 64)
    assert result.failures == [("wrong", "a", F(32, 64))]
    assert "__new__" in called
