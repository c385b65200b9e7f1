import itertools
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from interval_ref import Interval, build, make_interval, make_unit_interval, parts
from lattice_ref import fz_join, fz_meet

from fuzzcyl import cylinder
from fuzzcyl.cylinder import (
    CylinderOpen,
    OpenExpr,
    SweepResult,
    complement_compat,
    critical_gammas,
    cyl_complement,
    cyl_subset,
    empty_cylinder,
    open_realize,
    pi2,
    psi_star,
    recover_membership,
    subbasis_realize,
    tstar,
    verify_psi_laws,
)
from fuzzcyl.fuzzy import FuzzySet, fz_generate_topology, fz_indicator, ground
from fuzzcyl.intervals import EMPTY_SET, iv_union
from fuzzcyl.retraction import read_certificates
from fuzzcyl.sweeps import random_topology

F = Fraction
AB = ground("a", "b")


def const_topo(*values):
    gens = [FuzzySet.constant(AB, F(v) if isinstance(v, str) else v)
            for v in values]
    return fz_generate_topology(gens, AB)


def open_with_levels(topo, levels):
    for name, f in topo.items():
        if f.levels == levels:
            return name
    raise AssertionError(f"no open with levels {levels}")


def test_psi_star_examples():
    third = FuzzySet.constant(AB, F(1, 3))
    below = psi_star(third)
    expect = make_interval(0, F(1, 3), True, False)
    assert below.fibers == (expect, expect)
    assert psi_star(FuzzySet.constant(AB, 0)) == empty_cylinder(AB)
    assert psi_star(FuzzySet.constant(AB, 1)) == cyl_complement(empty_cylinder(AB))
    # each fiber spanned from the level's integers is the set (den and keys)
    # that the checked constructor builds from the level
    levels = sorted({F(k, d) for d in range(1, 25) for k in range(d + 1)})
    f = FuzzySet(ground(*(f"x{i}" for i in range(len(levels)))), tuple(levels))
    assert psi_star(f).fibers == tuple(make_interval(0, v, True, False) for v in levels)


def test_recover_membership():
    half = make_interval(0, F(1, 2), True, False)
    c = CylinderOpen(AB, (half, half))
    assert recover_membership(c) == FuzzySet.constant(AB, F(1, 2))
    assert recover_membership(empty_cylinder(AB)) == FuzzySet.constant(AB, 0)
    f = FuzzySet.from_dict(AB, {"a": F(1, 3), "b": F(5, 7)})
    assert recover_membership(psi_star(f)) == f


def test_recover_membership_rejects_bad_shape():
    half = make_interval(0, F(1, 2), True, False)
    for bad in (make_interval(F(1, 3), 1, False, False),
                make_unit_interval(0, F(1, 2), True, True),  # closed top
                make_interval(0, F(1, 2), False, False),  # open bottom
                iv_union(make_interval(0, F(1, 4), True, False),  # two pairs
                         make_interval(F(1, 2), F(3, 4), True, False))):
        with pytest.raises(ValueError, match="fiber at 'b' is not of down-set shape"):
            recover_membership(CylinderOpen(AB, (half, bad)))


def ref_recover_membership(c):
    """``recover_membership`` reading the canonical ``Interval`` parts."""
    values = []
    for x, fib in zip(c.ground.elements, c.fibers):
        if fib.is_empty():
            values.append(F(0))
            continue
        if len(parts(fib)) != 1:
            raise ValueError(f"fiber at {x!r} is not of down-set shape: {fib!r}")
        part = parts(fib)[0]
        if part.lo != 0 or not part.lo_closed or part.hi_closed:
            raise ValueError(f"fiber at {x!r} is not of down-set shape: {fib!r}")
        values.append(part.hi)
    return FuzzySet(c.ground, tuple(values))


def fiber_shapes(rng):
    """The down-sets (empty, [0, v) and [0, 1)) and every other shape:
    {0}, [0, v], (0, v), [u, v) and (u, v] with u > 0, several parts, and
    parameter sets holding 1."""
    def value(top):
        den = rng.choice((2, 3, 5, 8, 12))
        return F(rng.randint(1, den if top else den - 1), den)

    u, v = sorted((value(False), value(True)))
    down = [EMPTY_SET, make_interval(0, v, True, False), make_interval(0, 1, True, False)]
    shapes = [make_interval(0, 0, True, True), make_unit_interval(0, v, True, True),
              make_interval(0, v, False, False), make_interval(0, 1, False, False),
              make_unit_interval(0, 1, True, True), make_unit_interval(1, 1, True, True)]
    if u < v:
        shapes += [make_interval(u, v, True, False), make_unit_interval(u, v, False, True),
                   build([Interval(F(0), u / 2, True, False),
                          Interval(u, v, True, False)]),
                   build([Interval(F(0), F(0), True, True),
                          Interval(u, v, False, False)])]
    return down, shapes


def test_recover_membership_matches_the_parts_reading():
    """The same values, or the same message, as the reference on fibers of
    every shape, over three elements so that the message names the first
    fiber that is not a down-set; each fiber is a down-set four times in
    five."""
    rng = random.Random(9_800)
    abc = ground("a", "b", "c")
    outcomes = {"values": 0, "error": 0}
    for _ in range(300):
        down, shapes = fiber_shapes(rng)
        for _ in range(10):
            c = CylinderOpen(abc, tuple(rng.choice(down if rng.random() < 0.8 else shapes)
                                        for _ in abc.elements))
            try:
                expect = ref_recover_membership(c)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    recover_membership(c)
                assert str(got.value) == str(exc)
                outcomes["error"] += 1
            else:
                assert recover_membership(c) == expect
                outcomes["values"] += 1
    assert min(outcomes.values()) >= 300, outcomes


def test_subbasis_tstar_example_with_grid_oracle():
    topo = const_topo("2/3")
    name = open_with_levels(topo, (F(2, 3), F(2, 3)))
    realized = subbasis_realize(tstar(name, F(1, 4)), topo)
    expect = make_interval(0, F(5, 12), True, False)
    assert realized.fibers == (expect, expect)
    # independent brute check of T(x) - alpha > gamma at step 1/120
    for k in range(120):
        q = F(k, 120)
        assert realized.fiber("a").contains(q) == (F(2, 3) - q > F(1, 4))


def test_subbasis_pi2_negative_gamma():
    topo = const_topo()
    assert subbasis_realize(pi2(F(-1, 2)), topo) == cyl_complement(empty_cylinder(AB))


def test_subbasis_tstar_zero_is_psi_star():
    topo = const_topo("1/3", "2/3")
    for name, f in topo.items():
        assert subbasis_realize(tstar(name, 0), topo) == psi_star(f)


def test_open_realize_clause_example():
    topo = const_topo("2/3")
    name = open_with_levels(topo, (F(2, 3), F(2, 3)))
    expr = OpenExpr(((tstar(name, F(1, 4)), pi2(F(1, 3))),))
    realized = open_realize(expr, topo)
    expect = make_interval(F(1, 3), F(5, 12), False, False)
    assert realized.fibers == (expect, expect)
    for k in range(120):
        q = F(k, 120)
        brute = (F(2, 3) - q > F(1, 4)) and (q > F(1, 3))
        assert realized.fiber("a").contains(q) == brute


def test_open_realize_pi2_whole():
    topo = const_topo()
    expr = OpenExpr(((pi2(F(-1, 2)),),))
    assert open_realize(expr, topo) == cyl_complement(empty_cylinder(AB))


def test_fiber_membership_strictness():
    below = psi_star(FuzzySet.constant(AB, F(1, 3)))
    assert not below.fiber("a").contains(F(1, 3))
    assert below.fiber("a").contains(0)
    assert cyl_complement(empty_cylinder(AB)).fiber("a").contains(0)


def test_cyl_complement_examples():
    below = psi_star(FuzzySet.constant(AB, F(1, 3)))
    comp = cyl_complement(below)
    expect = make_interval(F(1, 3), 1, True, False)
    assert comp.fibers == (expect, expect)
    whole = cyl_complement(empty_cylinder(AB))
    assert whole.fibers == (make_interval(0, 1, True, False),) * 2
    assert cyl_complement(whole) == empty_cylinder(AB)


def test_complement_compat_counterexample():
    report = complement_compat(FuzzySet.constant(AB, F(1, 3)))
    assert not report.equal
    assert report.psi_of_complement == make_interval(0, F(2, 3), True, False)
    assert report.complement_of_psi == make_interval(F(1, 3), 1, True, False)


def test_complement_compat_indicator_and_whole():
    assert complement_compat(fz_indicator(["a"], AB)).equal
    assert complement_compat(FuzzySet.constant(AB, 1)).equal


def test_verify_psi_laws_examples():
    assert verify_psi_laws(const_topo("1/3", "2/3")).ok
    assert verify_psi_laws(const_topo()).ok


def test_monotonicity():
    f = FuzzySet.from_dict(AB, {"a": F(1, 4), "b": F(1, 2)})
    g = FuzzySet.from_dict(AB, {"a": F(1, 3), "b": F(3, 4)})
    assert cyl_subset(psi_star(f), psi_star(g))


def test_tstar_fibers_are_down_sets():
    topo = const_topo("1/3", "2/3")
    for name in topo.names:
        for g in critical_gammas(topo):
            realized = subbasis_realize(tstar(name, g), topo)
            for fib in realized.fibers:
                if fib.is_empty():
                    continue
                assert len(parts(fib)) == 1
                part = parts(fib)[0]
                assert part.lo == 0 and part.lo_closed and not part.hi_closed


def test_critical_gammas_cover_all_slice_patterns():
    topo = const_topo("1/3", "2/3")
    gammas = critical_gammas(topo)
    name = open_with_levels(topo, (F(1, 3), F(1, 3)))

    def slice_mask(g):
        realized = subbasis_realize(tstar(name, g), topo)
        return tuple(fib.contains(F(0)) for fib in realized.fibers)

    seen = {slice_mask(g) for g in gammas}
    # fresh gammas between criticals produce no new level-0 slice pattern
    for probe in (F(7, 24), F(-3, 7), F(17, 48), F(9, 10)):
        assert slice_mask(probe) in seen


def reference_psi_laws(topo, max_family=4):
    """The family loop verify_psi_laws replaced: each family's union is
    rebuilt member by member, families listed by size, then
    lexicographically."""
    failures = []
    checked = 0
    images = {name: cylinder.psi_star(f) for name, f in topo.items()}
    for (na, a), (nb, b) in itertools.combinations_with_replacement(list(topo.items()), 2):
        checked += 1
        if cylinder.cyl_intersect(images[na], images[nb]) != cylinder.psi_star(fz_meet(a, b)):
            failures.append(("meet-law", na, nb))
    names = list(topo.names)
    families = [list(c) for r in range(1, min(max_family, len(names)) + 1)
                for c in itertools.combinations(names, r)]
    if len(names) > max_family:
        families.append(names)
    for fam in families:
        checked += 1
        union = empty_cylinder(topo.ground)
        for n in fam:
            union = cylinder.cyl_union(union, images[n])
        joined = fz_join([topo.open_named(n) for n in fam])
        if union != cylinder.psi_star(joined):
            failures.append(("join-law", *fam))
    return SweepResult("psi-laws", checked, failures)


def draw_with_opens(rng, count):
    """The next draw of ``random_topology(rng)`` with ``count`` opens, within
    100 draws."""
    for _ in range(100):
        topo = random_topology(rng)
        if len(topo.names) == count:
            return topo
    raise AssertionError(f"no {count}-open topology in 100 draws")


def test_verify_psi_laws_matches_reference_loop(monkeypatch):
    rng = random.Random(1)
    draws = [random_topology(rng) for _ in range(30)]
    assert max(len(t.names) for t in draws) >= 15
    # 20 opens is the largest size the generator draws, and the size with
    # the most families for each union step the join law is decided on
    draws.append(draw_with_opens(rng, 20))
    assert max(len(t.names) for t in draws) == 20
    for topo in draws:
        n = len(topo.names)
        sizes = (1, 2, 4, n + 1) if n <= 10 else (1, 2, 4)
        for max_family in sizes:
            expect = reference_psi_laws(topo, max_family)
            monkeypatch.setattr(cylinder, "MAX_FAMILY", max_family)
            assert verify_psi_laws(topo) == expect


def fault_topology():
    """The first draw of ``random_topology(Random(1))`` with 10 or more opens."""
    rng = random.Random(1)
    topo = random_topology(rng)
    while len(topo.names) < 10:
        topo = random_topology(rng)
    return topo


def fiber_pairs(monkeypatch, name, topo):
    """The distinct (fiber, fiber) argument pairs, of two different fibers,
    that the reference loop passes to ``cylinder.<name>`` at max_family 2.
    Image fibers are down-sets [0, v), so the honest result is one of the
    two, and returning the other is a fault."""
    honest = getattr(cylinder, name)
    seen = []

    def recorded(a, b):
        seen.append((a, b))
        return honest(a, b)

    monkeypatch.setattr(cylinder, name, recorded)
    reference_psi_laws(topo, 2)
    monkeypatch.setattr(cylinder, name, honest)
    return sorted({(a, b) for a, b in seen if a != b}, key=repr)


def deepest_fiber_fault(monkeypatch, name):
    """Corrupt one fiber pair at a time in ``cylinder.<name>``: every pair of
    opens and every family that reaches the pair inherits the fault, and the
    report must equal the reference loop's.  Returns the size of the largest
    failing pair or family."""
    topo = fault_topology()
    honest = getattr(cylinder, name)
    pairs = fiber_pairs(monkeypatch, name, topo)
    assert len(pairs) >= 3
    law = {"iv_union": "join-law", "iv_intersect": "meet-law"}[name]
    deepest = 0
    for pair in pairs:
        def faulty(a, b, pair=pair):
            out = honest(a, b)
            if (a, b) == pair:
                assert out in pair
                return b if out == a else a
            return out

        monkeypatch.setattr(cylinder, name, faulty)
        for max_family in (2, 4):
            expect = reference_psi_laws(topo, max_family)
            assert any(f[0] == law for f in expect.failures)
            monkeypatch.setattr(cylinder, "MAX_FAMILY", max_family)
            assert verify_psi_laws(topo) == expect
        deepest = max(deepest, *(len(f) - 1 for f in expect.failures))
    return deepest


def test_verify_psi_laws_reports_injected_union_fault(monkeypatch):
    assert deepest_fiber_fault(monkeypatch, "iv_union") >= 3


def test_verify_psi_laws_reports_injected_intersect_fault(monkeypatch):
    assert deepest_fiber_fault(monkeypatch, "iv_intersect") >= 2


def test_verify_psi_laws_lists_families_only_when_a_step_fails(monkeypatch):
    """A clean check decides the join law on its n·(n + 1) union steps and
    lists no family, even where the families outnumber the steps; under each
    ``iv_union`` fault of ``deepest_fiber_fault`` a step fails and the
    families are listed, and under each ``iv_intersect`` fault every step
    holds and none is."""
    listed = []

    def combinations(pool, r):
        listed.append(r)
        return itertools.combinations(pool, r)

    monkeypatch.setattr(cylinder, "itertools", SimpleNamespace(
        combinations=combinations,
        combinations_with_replacement=itertools.combinations_with_replacement))
    rng = random.Random(1)
    draws = [random_topology(rng) for _ in range(30)] + [draw_with_opens(rng, 20)]

    def families(n):
        return sum(math.comb(n, r) for r in range(1, min(4, n) + 1)) + (n > 4)

    larger = [topo for topo in draws + mixed_denominator_topologies()
              if families(len(topo.names)) > len(topo.names) * (len(topo.names) + 1)]
    assert len(larger) >= 10 and max(len(topo.names) for topo in larger) == 20
    for topo in larger:
        assert verify_psi_laws(topo).ok
    assert listed == []
    honest = cylinder.iv_union
    pairs = fiber_pairs(monkeypatch, "iv_union", fault_topology())
    deepest_fiber_fault(monkeypatch, "iv_union")
    # each listing starts with the families of size 1: one per check, at
    # MAX_FAMILY 2 and 4 for each faulted pair
    assert listed.count(1) == 2 * len(pairs)
    monkeypatch.setattr(cylinder, "iv_union", honest)
    listed.clear()
    deepest_fiber_fault(monkeypatch, "iv_intersect")
    assert listed == []


def mixed_denominator_topologies():
    """Hand-built topologies whose levels have denominators 3, 4, 5 and 7,
    so their common denominator is 420, with 0 and 1 among the levels:
    6, 6, 20 and 4 opens."""
    xy, xyz = ground("x", "y"), ground("x", "y", "z")
    families = [
        (xy, [("1/3", "3/4"), ("2/5", "1/7")]),
        (xyz, [("4/7", "1/4", "3/5"), ("1", "0", "2/3")]),
        (xyz, [("4/7", "1/4", "3/5"), ("1", "0", "2/3"), ("1/3", "1/5", "1")]),
        (xyz, [("1/7", "2/7", "3/7"), ("3/4", "2/3", "3/5")]),
    ]
    return [fz_generate_topology([FuzzySet(gs, tuple(F(v) for v in levels))
                                  for levels in gens], gs)
            for gs, gens in families]


def test_verify_psi_laws_on_mixed_denominators(monkeypatch):
    for topo in mixed_denominator_topologies():
        values = topo.membership_values()
        assert math.lcm(*(v.denominator for v in values)) == 420
        assert values[0] == 0 and values[-1] == 1
        n = len(topo.names)
        for max_family in (1, 2, 4, n + 1) if n <= 10 else (1, 2, 4):
            expect = reference_psi_laws(topo, max_family)
            assert expect.ok
            monkeypatch.setattr(cylinder, "MAX_FAMILY", max_family)
            assert verify_psi_laws(topo) == expect


def test_verify_psi_laws_reports_injected_psi_star_fault(monkeypatch):
    """psi_star gives a wrong image for one joined level tuple: the join of
    two incomparable opens. Every report must equal the reference loop's,
    which calls psi_star afresh for every family."""
    honest = cylinder.psi_star
    whole = make_interval(0, 1, True, False)
    faulted = 0
    for topo in mixed_denominator_topologies():
        targets = sorted({fz_join([a, b]).levels
                          for a, b in itertools.combinations(topo.opens, 2)
                          if not cyl_subset(honest(a), honest(b))
                          and not cyl_subset(honest(b), honest(a))})
        for target in targets:
            def faulty(f, target=target):
                image = honest(f)
                if f.levels != target:
                    return image
                wrong = EMPTY_SET if image.fibers[0] == whole else whole
                return CylinderOpen(image.ground, (wrong,) + image.fibers[1:])

            monkeypatch.setattr(cylinder, "psi_star", faulty)
            for max_family in (2, 4) if len(topo.names) <= 10 else (2,):
                expect = reference_psi_laws(topo, max_family)
                assert any(f[0] == "join-law" for f in expect.failures)
                monkeypatch.setattr(cylinder, "MAX_FAMILY", max_family)
                assert verify_psi_laws(topo) == expect
            monkeypatch.setattr(cylinder, "psi_star", honest)
            faulted += 1
    assert faulted >= 3


# a certificate on AB whose pi2 target names an open, read through the file reader
PI2_WITH_OPEN = {"t_interval": {"lo": "0", "hi": "1"},
                 "region_expr": [[{"kind": "pi2", "gamma": "-1"}]],
                 "target": {"kind": "pi2", "gamma": "0", "open": "zz"},
                 "anchor_t": "0", "anchor": {"x": "a", "alpha": "0"}}


@pytest.mark.parametrize("build, error", [
    (lambda: cylinder.SubbasisElem("pi2", 0.5), TypeError),
    (lambda: cylinder.SubbasisElem("pi2", "0"), TypeError),
    (lambda: cylinder.SubbasisElem("tstar", True, "T0"), TypeError),
    (lambda: cylinder.SubbasisElem("pi2", F(0), "T0"), ValueError),
    (lambda: cylinder.SubbasisElem("tstar", F(0), 5), ValueError),
    (lambda: read_certificates(fz_generate_topology([], AB), [PI2_WITH_OPEN]), ValueError),
], ids=["float-gamma", "string-gamma", "bool-gamma", "pi2-with-open", "open-not-a-string",
        "pi2-with-open-json"])
def test_subbasis_elem_checks_field_types(build, error):
    with pytest.raises(error):
        build()


def test_subbasis_elem_hash_is_set_equality_across_processes():
    """The hash is computed once from the compared fields, gamma as its
    numerator and denominator, so an int gamma and the equal Fraction hash
    alike; and a pickled element is rebuilt from its fields, so one written
    under another str hash seed is still found by value."""
    e = cylinder.tstar("T0", "1/3")
    assert hash(e) == hash(("tstar", 1, 3, "T0"))
    assert e == cylinder.SubbasisElem("tstar", F(1, 3), "T0") != cylinder.pi2("1/3")
    whole, parsed = cylinder.SubbasisElem("pi2", 0), cylinder.pi2("0")
    assert whole == parsed and hash(whole) == hash(parsed) == hash(("pi2", 0, 1, None))
    assert whole in {parsed} and parsed in {whole}
    again = pickle.loads(pickle.dumps(e))
    assert again == e and hash(again) == hash(e) and again is not e
    write = "import pickle, sys; from fuzzcyl.cylinder import tstar; " \
            "sys.stdout.write(pickle.dumps(tstar('T0', '1/3')).hex())"
    read = "import pickle, sys; from fuzzcyl.cylinder import tstar; " \
           "print(pickle.loads(bytes.fromhex(sys.argv[1])) in {tstar('T0', '1/3')})"
    src = str(pathlib.Path(cylinder.__file__).parents[1])

    def run(code, seed, *args):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, check=True).stdout
    assert run(read, "2", run(write, "1")).strip() == "True"


def test_cylinder_open_from_json_rejects_unknown_elements():
    assert CylinderOpen.from_json(AB, {"fibers": {"a": []}}, "region") == empty_cylinder(AB)
    with pytest.raises(ValueError, match="'zz'"):
        CylinderOpen.from_json(AB, {"fibers": {"a": [], "zz": []}}, "region")


def test_verify_psi_laws_builds_one_image_per_open(monkeypatch):
    """Meets and joins of opens are opens: their images are looked up, so
    psi_star runs once per open however many pairs and families there are."""
    honest = cylinder.psi_star
    calls = []

    def counted(f):
        calls.append(f.levels)
        return honest(f)

    monkeypatch.setattr(cylinder, "psi_star", counted)
    monkeypatch.setattr(cylinder, "MAX_FAMILY", 4)
    for topo in mixed_denominator_topologies():
        calls.clear()
        assert verify_psi_laws(topo).ok
        assert sorted(calls) == sorted(f.levels for f in topo.opens)


def test_verify_psi_laws_runs_each_fiber_pair_once(monkeypatch):
    """Both laws hold fiber by fiber, and the check caches the interval
    operations on interned fibers: ``iv_intersect`` and ``iv_union`` each
    run once per distinct (fiber, fiber) argument pair, however many pairs
    of opens and families (6,195 of size 1 to 4 for 20 opens) share it."""
    calls = {"iv_intersect": [], "iv_union": []}
    for name, seen in calls.items():
        def counted(a, b, honest=getattr(cylinder, name), seen=seen):
            seen.append((a, b))
            return honest(a, b)

        monkeypatch.setattr(cylinder, name, counted)
    twenty = draw_with_opens(random.Random(1), 20)
    for topo in mixed_denominator_topologies() + [twenty]:
        for seen in calls.values():
            seen.clear()
        assert verify_psi_laws(topo).ok
        for name, seen in calls.items():
            assert seen and len(seen) == len(set(seen)), name
    interned = sum(map(len, calls.values()))
    for seen in calls.values():
        seen.clear()
    assert reference_psi_laws(twenty).ok
    assert interned < sum(map(len, calls.values()))
