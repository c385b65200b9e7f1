import random
from fractions import Fraction

import pytest

from fuzzcyl import checks
from fuzzcyl.cylinder import CylPoint
from fuzzcyl.functor import complement_report, is_complement
from fuzzcyl.fuzzy import FuzzySet, fz_complement, fz_indicator, ground
from fuzzcyl.paths import Const, VerticalAffine, chi_eval, functor_object_path, pasting_failure
from fuzzcyl.sweeps import random_fuzzy, random_ground

F = Fraction
AB = ground("a", "b")
GRID = [F(k, 16) for k in range(17)]


def check_constant_inverse(f, y, z, beta):
    """The complement's object path is the original's with its two affine
    coefficients swapped."""
    path = functor_object_path(f, y, z, beta)
    return functor_object_path(fz_complement(f), y, z, beta) == \
        VerticalAffine(path.x, path.a1, path.a0)


def check_functoriality(f, y, gamma, delta):
    """Morphism evaluation at (F(y), 1 - F(y)) of the concatenation equals
    the pasting of the parts' evaluations on the 1/16 grid."""
    return pasting_failure(gamma, delta, f(y), 1 - f(y), GRID) is None


def test_is_complement_examples():
    third = FuzzySet.constant(AB, F(1, 3))
    two_thirds = FuzzySet.constant(AB, F(2, 3))
    half = FuzzySet.constant(AB, F(1, 2))
    assert is_complement(third, two_thirds)
    assert is_complement(half, half)
    assert not is_complement(third, third)


def test_is_complement_rejects_ground_mismatch():
    third = FuzzySet.constant(AB, F(1, 3))
    other = FuzzySet.constant(ground("c"), F(2, 3))
    with pytest.raises(ValueError):
        is_complement(third, other)


def test_check_constant_inverse_examples():
    gs = ground("y", "z")
    quarter = FuzzySet.constant(gs, F(1, 4))
    assert check_constant_inverse(quarter, "y", "z", F(1, 2))
    half = FuzzySet.constant(gs, F(1, 2))
    assert check_constant_inverse(half, "y", "z", F(1, 2))
    assert check_constant_inverse(quarter, "y", "z", 0)


def test_check_functoriality_composable_verticals():
    gs = ground("y", "z")
    fuzzy = FuzzySet.constant(gs, F(1, 4))
    gamma = VerticalAffine("z", F(0), F(1, 2))
    delta = VerticalAffine("z", F(1, 2), F(1, 8))
    assert check_functoriality(fuzzy, "y", gamma, delta)


def test_check_functoriality_constant_morphism():
    gs = ground("y", "z")
    fuzzy = FuzzySet.constant(gs, F(1, 3))
    c = Const(CylPoint("z", F(1, 2)))
    assert check_functoriality(fuzzy, "y", c, c)
    # morphism evaluation of a constant path is eta-independent
    fy = fuzzy("y")
    base = chi_eval(c, fy, 1 - fy, F(0), F(1, 3))
    for k in range(5):
        assert chi_eval(c, fy, 1 - fy, F(k, 4), F(1, 3)) == base


def test_check_functoriality_rejects_non_composable():
    gs = ground("y", "z")
    fuzzy = FuzzySet.constant(gs, F(1, 4))
    gamma = VerticalAffine("z", F(0), F(1, 2))
    delta = VerticalAffine("z", F(1, 4), F(1, 8))
    with pytest.raises(ValueError):
        check_functoriality(fuzzy, "y", gamma, delta)


def test_complement_report_contrast():
    third = FuzzySet.constant(AB, F(1, 3))
    rep = complement_report(third, FuzzySet.constant(AB, F(2, 3)))
    assert rep.inversion and rep.direct
    assert not rep.cylinder_compat.equal

    ind = fz_indicator(["a"], AB)
    rep = complement_report(ind, fz_complement(ind))
    assert rep.inversion and rep.direct and rep.cylinder_compat.equal

    rep = complement_report(third, third)
    assert not rep.inversion and not rep.direct


def inverts_at(f, g, beta):
    """The object paths of g at level beta are those of f reversed."""
    for y in f.ground.elements:
        path = functor_object_path(f, y, y, beta)
        if functor_object_path(g, y, y, beta) != VerticalAffine(path.x, path.a1, path.a0):
            return False
    return True


def test_involution_and_probe_independence_random():
    """``is_complement`` decides at one level: the object paths at every
    nonzero level give its verdict, on complements and on near misses,
    while at level 0 every path is constant at 0 and decides nothing."""
    rng = random.Random(12)
    levels = [F(k, 16) for k in range(1, 16)]
    for _ in range(30):
        gs = random_ground(rng)
        f = random_fuzzy(rng, gs)
        comp = fz_complement(f)
        assert is_complement(f, comp)
        assert is_complement(comp, f)
        near = FuzzySet(gs, (f.levels[0],) + comp.levels[1:])
        for g in (comp, near):
            verdict = is_complement(f, g)
            assert verdict == (g == comp)
            assert all(inverts_at(f, g, beta) == verdict for beta in levels)
            assert inverts_at(f, g, 0)


def test_constant_inverse_law_random():
    rng = random.Random(13)
    for _ in range(30):
        gs = random_ground(rng)
        f = random_fuzzy(rng, gs)
        y = rng.choice(gs.elements)
        z = rng.choice(gs.elements)
        beta = F(rng.randint(0, 15), 16)
        assert check_constant_inverse(f, y, z, beta)


def test_complement_sweep_reports_a_wrong_verdict(monkeypatch):
    """Criterion 9's sweep can fail: a decision that accepts every pair is
    caught on each pair that is not a complement (every odd case)."""
    clean = checks.sweep_complement(random.Random(106), 40)
    assert clean.ok and clean.checked == 40
    monkeypatch.setattr(checks, "is_complement", lambda F, G: True)
    planted = checks.sweep_complement(random.Random(106), 40)
    assert planted.checked == 40 and len(planted.failures) == 20
    assert {f[0] for f in planted.failures} == {"oracle-mismatch"}
