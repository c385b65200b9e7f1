"""The interval-set JSON codec.

``IntervalSet.to_json`` formats each endpoint from its boundary key, and
``IntervalSet.from_json`` reads each interval's ends and flags straight
to integers and checks them in integers.  The references are the encoder
and decoder they replaced (``interval_ref``): ``Interval.to_json`` of each
canonical part, and ``Interval.from_json`` with its ``Fraction`` checks,
normalized by the reference.  Malformed fields must raise the exception
class and message the reference raises, and a malformed field in a
replayed certificate must give the CLI's one ``error:`` line with that
message; the region fibers it edits are read from a file in the older
format that still stored them.
"""

import contextlib
import io
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from interval_ref import Interval, build, from_json, to_json

from fuzzcyl.cli import main
from fuzzcyl.intervals import EMPTY_SET, IntervalSet

# ---------------------------------------------------------------------------
# interval-set codec

DENOMINATORS = (1, 2, 3, 4, 6, 7, 12, 30, 64)


def random_value(rng):
    den = rng.choice(DENOMINATORS)
    return F(rng.randint(0, den), den)


def random_interval(rng):
    lo, hi = sorted((random_value(rng), random_value(rng)))
    if rng.random() < 0.2:
        hi = lo
    if lo == hi:
        return Interval(lo, hi, True, True)
    return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def render(q, rng):
    """A JSON form of q that ``frac`` reads: "p/q", unreduced "kp/kq",
    padded, or a JSON integer."""
    roll = rng.random()
    if q.denominator == 1 and roll < 0.3:
        return q.numerator
    if roll < 0.5:
        k = rng.randint(2, 5)
        return f"{k * q.numerator}/{k * q.denominator}"
    if roll < 0.6:
        return f" {q.numerator}/{q.denominator} "
    return f"{q.numerator}/{q.denominator}" if q.denominator > 1 else str(q.numerator)


def loose_json(parts, rng):
    """Non-canonical JSON of the intervals: any order, optional flags."""
    parts = list(parts)
    rng.shuffle(parts)
    out = []
    for p in parts:
        d = {"lo": render(p.lo, rng), "hi": render(p.hi, rng)}
        for flag, value in (("lo_open", not p.lo_closed), ("hi_open", not p.hi_closed)):
            if value or rng.random() < 0.5:
                d[flag] = value
        out.append(d)
    return out


def test_codec_matches_parts_reference():
    rng = random.Random(9_600)
    multi = 0
    for _ in range(4_000):
        parts = [random_interval(rng) for _ in range(rng.randint(0, 4))]
        s = build(parts)
        assert s.to_json() == to_json(s)
        assert IntervalSet.from_json(s.to_json(), "set") == s
        doc = loose_json(parts, rng)
        got, expect = IntervalSet.from_json(doc, "set"), from_json(doc)
        assert (got.den, got.keys) == (expect.den, expect.keys) == (s.den, s.keys)
        multi += len(s.keys) > 2
    assert IntervalSet.from_json([], "set") == EMPTY_SET
    assert multi >= 1_000


# ---------------------------------------------------------------------------
# malformed fields

GOOD = {"lo": "1/4", "hi": "1/2", "lo_open": False, "hi_open": True}

# (name, change to GOOD, exception class, message)
MALFORMED = [
    ("zero-denominator", {"lo": "1/0"}, ValueError, "zero denominator in '1/0'"),
    ("negative-denominator", {"lo": "1/-2"}, ValueError,
     "interval endpoint outside [0,1]: -1/2"),
    ("above-one", {"hi": "3/2"}, ValueError, "interval endpoint outside [0,1]: 3/2"),
    ("negative", {"lo": -1}, ValueError, "interval endpoint outside [0,1]: -1"),
    ("not-a-number", {"lo": "half"}, ValueError,
     "invalid literal for int() with base 10: 'half'"),
    ("float", {"hi": 0.5}, TypeError, "cannot interpret 0.5 as an exact rational"),
    ("float-string", {"hi": "0.5"}, ValueError,
     "invalid literal for int() with base 10: '0.5'"),
    ("bool", {"lo": True}, TypeError, "cannot interpret True as an exact rational"),
    ("null", {"lo": None}, TypeError, "cannot interpret None as an exact rational"),
    ("lo-above-hi", {"lo": "2/3", "hi": "1/3"}, ValueError, "empty interval: [2/3,1/3)"),
    ("open-degenerate", {"lo": "1/2", "hi": "2/4"}, ValueError,
     "degenerate interval must be closed on both sides: [1/2,1/2)"),
    ("open-degenerate-low", {"lo": "1", "hi": "1", "lo_open": True, "hi_open": False},
     ValueError, "degenerate interval must be closed on both sides: (1,1]"),
    ("string-flag", {"lo_open": "no"}, TypeError,
     "interval flags lo_open and hi_open must be booleans"),
    ("int-flag", {"hi_open": 1}, TypeError,
     "interval flags lo_open and hi_open must be booleans"),
    ("null-flag", {"lo_open": None}, TypeError,
     "interval flags lo_open and hi_open must be booleans"),
]


@pytest.mark.parametrize("change, error, message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_fields_raise_the_reference_class(change, error, message):
    doc = {**GOOD, **change}
    for read in (Interval.from_json,
                 lambda d: IntervalSet.from_json([d], "set"),
                 lambda d: IntervalSet.from_json([GOOD, d], "set")):
        with pytest.raises(error) as caught:
            read(doc)
        assert str(caught.value) == message


TOPO = {"ground_set": ["a", "b"],
        "opens": [{"name": n, "values": {"a": v, "b": v}}
                  for n, v in (("T0", "0"), ("T1", "1"), ("T2", "1/3"), ("T3", "2/3"))]}


# the 12 certificates for TOPO at --sweeps 12 --seed 4, in the format that
# also stored each certificate's realized region fibers, which replay reads
OLD_CERTS = Path(__file__).resolve().parent / "old_certs" / "topo_sweeps12_seed4.json"


@pytest.fixture(scope="module")
def replay_files(tmp_path_factory):
    """A topology file, and the old certificate file for it."""
    topo = tmp_path_factory.mktemp("replay") / "topo.json"
    topo.write_text(json.dumps(TOPO))
    return topo, OLD_CERTS


@pytest.mark.parametrize("change, message", [(case[1], case[3]) for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_region_interval_exits_2_with_its_message(replay_files, change,
                                                            message):
    topo, certs = replay_files
    forged = json.loads(certs.read_text())
    w = forged[0]
    w["region"]["fibers"][w["anchor"]["x"]][0] = {**GOOD, **change}
    path = topo.with_name("forged.json")
    path.write_text(json.dumps(forged))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify-retraction", "--topology", str(topo), "--replay", str(path)])
    assert (code, out.getvalue()) == (2, "")
    place = f"interval in fiber {w['anchor']['x']!r} of region of certificate 0"
    assert err.getvalue() == f"error: malformed certificate: {place}: {message}\n"


NOT_AN_OBJECT = "time box must be an object"


@pytest.mark.parametrize("doc, error, message", [
    ({"hi": "1/2"}, ValueError, "time box has no 'lo' field"),
    ({"lo": "0"}, ValueError, "time box has no 'hi' field"),
    ("lo", TypeError, NOT_AN_OBJECT),
    (3, TypeError, NOT_AN_OBJECT),
    ([], TypeError, NOT_AN_OBJECT),
], ids=["missing-lo", "missing-hi", "string", "int", "list"])
def test_malformed_interval_shapes(doc, error, message):
    """A missing end is a ValueError naming the set and the field, and an
    interval that is not an object a TypeError naming the set."""
    with pytest.raises(error):
        Interval.from_json(doc)
    with pytest.raises(error) as caught:
        IntervalSet.from_json([doc], "time box")
    assert str(caught.value) == message
