import random
from fractions import Fraction as F

import pytest

from fuzzcyl.cylinder import CylPoint, pi2
from fuzzcyl.fuzzy import FuzzySet, fz_generate_topology, ground
from fuzzcyl.intervals import IntervalSet
from fuzzcyl.paths import (
    ChiBoundary,
    Const,
    FencePath,
    HLift,
    HTransform,
    VerticalAffine,
    chi_eval,
    chi_keys,
    eval_keys,
    eval_path,
    functor_object_path,
    kappa,
)
from fuzzcyl.rationals import format_ratio, format_rational, frac, parse_ratio, unit
from fuzzcyl.retraction import continuity_witness, h_eval, read_certificates

EPS = F(1, 10**6)
START = Const(CylPoint("a", F(0)))
FUZZY = FuzzySet(ground("a"), (F(1, 3),))
GRID = [F(k, 4) for k in range(5)]
# the anchor's image, level 0, lies above the target's gamma at every time
TOPO, ANCHOR, TARGET = fz_generate_topology([], ground("a")), CylPoint("a", F(0)), pi2(F(-1, 2))
WITNESS = continuity_witness(0, ANCHOR, TARGET, TOPO).to_json()


def read_interval(lo, hi):
    """``IntervalSet.from_json`` of the closed interval [lo, hi]."""
    return IntervalSet.from_json([{"lo": lo, "hi": hi}], "set")

# Every range check of the library, as (site, call, range is [0,1), the
# call also takes "p/q" strings). Each call passes the probed value to
# exactly one checked argument.
SITES = [
    ("FuzzySet", lambda q: FuzzySet(ground("a"), (q,)), False, False),
    ("IntervalSet.from_json.lo", lambda q: read_interval(q, 1), False, True),
    ("IntervalSet.from_json.hi", lambda q: read_interval(0, q), False, True),
    ("kappa.s", lambda q: kappa(q, 0, 0), False, True),
    ("kappa.t", lambda q: kappa(0, q, 0), False, True),
    ("kappa.x", lambda q: kappa(0, 0, q), False, True),
    ("VerticalAffine.a0", lambda q: VerticalAffine("a", q, F(0)), True, False),
    ("VerticalAffine.a1", lambda q: VerticalAffine("a", F(0), q), True, False),
    ("HLift", lambda q: HLift(FencePath(("a",), ()), q), True, False),
    ("HTransform", lambda q: HTransform(q, START), False, False),
    ("ChiBoundary.s", lambda q: ChiBoundary(START, q, F(0), 0), False, False),
    ("ChiBoundary.t", lambda q: ChiBoundary(START, F(0), q, 0), False, False),
    ("eval_path", lambda q: eval_path(START, q), False, True),
    # the row kernels check every value of a grid, here one in its middle
    ("eval_keys", lambda q: eval_keys(START, [0, F(1, 4), q, 1]), False, True),
    ("chi_eval.s", lambda q: chi_eval(START, q, 0, 0, 0), False, True),
    ("chi_eval.t", lambda q: chi_eval(START, 0, q, 0, 0), False, True),
    ("chi_eval.eta", lambda q: chi_eval(START, 0, 0, q, 0), False, True),
    ("chi_eval.x", lambda q: chi_eval(START, 0, 0, 0, q), False, True),
    ("chi_keys.s", lambda q: chi_keys(START, q, 0, GRID, GRID), False, True),
    ("chi_keys.t", lambda q: chi_keys(START, 0, q, GRID, GRID), False, True),
    ("chi_keys.etas", lambda q: chi_keys(START, 0, 0, [0, q, 1], GRID), False, True),
    ("chi_keys.xs", lambda q: chi_keys(START, 0, 0, GRID, [1, F(1, 2), q, 0]), False, True),
    ("functor_object_path", lambda q: functor_object_path(FUZZY, "a", "a", q), True, True),
    ("CylPoint", lambda q: CylPoint("a", q), True, False),
    ("h_eval", lambda q: h_eval(q, CylPoint("a", F(0))), False, True),
    ("continuity_witness", lambda q: continuity_witness(q, ANCHOR, TARGET, TOPO), False, True),
    ("read_certificates.anchor_t",
     lambda q: read_certificates(TOPO, [{**WITNESS, "anchor_t": q}]), False, True),
]


@pytest.mark.parametrize("site,call,top_open,strings", SITES, ids=[s[0] for s in SITES])
def test_every_range_check(site, call, top_open, strings):
    accepted = [0, F(0), F(1, 2), 1 - EPS]
    rejected = [-EPS, -1, 2]
    if top_open:
        rejected += [F(1), 1]
    else:
        accepted += [F(1), 1]
        rejected += [1 + EPS]
    if strings:
        accepted += ["0", "1/2"]
        rejected += ["-1/2", "3/2"]
    for q in accepted:
        call(q)
    for q in rejected:
        with pytest.raises(ValueError):
            call(q)
    for q in (0.5, 0.0, True, False):
        with pytest.raises(TypeError):
            call(q)


def test_unit_returns_its_argument_and_names_the_range():
    half = F(1, 2)
    assert unit(half, "level") is half
    assert unit(1, "time") == 1 and type(unit(1, "time")) is int
    with pytest.raises(ValueError, match=r"^time outside \[0,1\]: 3/2$"):
        unit(F(3, 2), "time")
    with pytest.raises(ValueError, match=r"^level outside \[0,1\): 1$"):
        unit(F(1), "level", top_open=True)
    with pytest.raises(TypeError, match="cannot interpret 0.5 as an exact rational"):
        unit(0.5, "level")


def test_frac_rejects_booleans_and_floats():
    assert frac(1) == F(1) and frac("2/4") == F(1, 2) and frac(F(1, 3)) == F(1, 3)
    for value in (True, False, 0.5, None, [1]):
        with pytest.raises(TypeError, match="as an exact rational"):
            frac(value)


def test_parse_ratio_reads_exactly_the_documented_grammar():
    # "p/q" or "p": ASCII digits after at most one "-", blanks only around
    # the whole text, the sign moved to the numerator
    for text, expected in (("1/2", (1, 2)), (" 3/4\n", (3, 4)), ("-1/3", (-1, 3)),
                           ("1/-2", (-1, 2)), ("-1/-2", (1, 2)), ("7", (7, 1)),
                           ("-0", (0, 1)), ("2/4", (2, 4))):
        assert parse_ratio(text) == expected, text
    # int() takes each of these parts; the grammar does not
    for text in ("1_0/20", "+1/3", "1/+3", "+1", "1_0", "1 /2", "1/ 2", "1\t/2",
                 "\u0661/3", "1/\u0663", "\u0661"):
        with pytest.raises(ValueError) as caught:
            parse_ratio(text)
        assert str(caught.value) == f'not a "p/q" or "p" rational: {text.strip()!r}'
    # int()'s own messages come first, the zero denominator next
    for text, message in (("half", "invalid literal for int() with base 10: 'half'"),
                          ("1/2/3", "invalid literal for int() with base 10: '2/3'"),
                          ("1_0/0", "zero denominator in '1_0/0'")):
        with pytest.raises(ValueError) as caught:
            parse_ratio(text)
        assert str(caught.value) == message


def shown(q):
    """"p/q" of a Fraction from its reduced numerator and denominator."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def test_format_ratio_matches_format_rational():
    # every pair with |n| <= 24 and d <= 24: zero, d = 1, negative n and
    # unreduced pairs, then large random ones
    rng = random.Random(1_717)
    pairs = [(n, d) for n in range(-24, 25) for d in range(1, 25)]
    pairs += [(rng.randint(-10**12, 10**12) * k, rng.randint(1, 10**6) * k)
              for k in (1, 6, 360) for _ in range(500)]
    kinds = {"zero": 0, "integer": 0, "negative": 0, "unreduced": 0}
    for n, d in pairs:
        q = F(n, d)
        assert format_ratio(n, d) == format_rational(q) == shown(q), (n, d)
        kinds["zero"] += n == 0
        kinds["integer"] += d == 1
        kinds["negative"] += n < 0
        kinds["unreduced"] += q.denominator != d
    assert min(kinds.values()) >= 24, kinds
