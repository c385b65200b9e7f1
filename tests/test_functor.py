import random
from fractions import Fraction

import pytest

from fuzzcyl import (
    Const,
    FuzzySet,
    VerticalAffine,
    chi_eval,
    complement_report,
    functor_object_path,
    fz_complement,
    fz_indicator,
    ground,
    is_complement,
    point,
)
from fuzzcyl.functor import PROBES
from fuzzcyl.paths import pasting_failure
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


def test_is_complement_rejects_ground_mismatch_and_zero_probe():
    third = FuzzySet.constant(AB, F(1, 3))
    other = FuzzySet.constant(ground("c"), F(2, 3))
    with pytest.raises(ValueError):
        is_complement(third, other)
    with pytest.raises(ValueError):
        is_complement(third, fz_complement(third), probes=(F(0),))


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
    c = Const(point("z", F(1, 2)))
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


def test_involution_and_probe_independence_random():
    rng = random.Random(12)
    for _ in range(30):
        gs = random_ground(rng)
        f = random_fuzzy(rng, gs)
        comp = fz_complement(f)
        assert is_complement(f, comp)
        assert is_complement(comp, f)
        verdicts = {is_complement(f, comp, probes=(b,)) for b in PROBES}
        assert verdicts == {True}


def test_constant_inverse_law_random():
    rng = random.Random(13)
    for _ in range(30):
        gs = random_ground(rng)
        f = random_fuzzy(rng, gs)
        y = rng.choice(gs.elements)
        z = rng.choice(gs.elements)
        beta = F(rng.randint(0, 15), 16)
        assert check_constant_inverse(f, y, z, beta)
