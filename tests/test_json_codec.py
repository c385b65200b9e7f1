"""The JSON text the CLI writes, and the interval-set codec.

Writer: ``cli.dumps`` must give the bytes of ``json.dumps(doc, indent=2)``
on random nested documents with non-ASCII text, quotes, control
characters, empty containers, tuples, ints, floats, None and booleans.

Codec: ``IntervalSet.to_json`` formats each endpoint from its boundary key,
and ``IntervalSet.from_json`` reads each interval with the field reader it
shares with ``Interval.from_json``.  The references are the encoder and
decoder they replaced: ``Interval.to_json`` of each canonical part, and
``canonical`` of ``Interval``s read with ``Fraction`` checks.  Malformed
fields must raise the exception class the reference raises.
"""

import json
import random
import string
from collections import OrderedDict
from fractions import Fraction as F

import pytest

from fuzzcyl.cli import dumps
from fuzzcyl.intervals import EMPTY_SET, Interval, IntervalSet, canonical
from fuzzcyl.rationals import frac

ZERO, ONE = F(0), F(1)

# ---------------------------------------------------------------------------
# writer

ALPHABET = string.printable + "\x00\x01\x1f\x7f\"\\/éß☃€\U0001f600"


def random_text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))


def random_leaf(rng):
    return rng.choice([
        lambda: random_text(rng),
        lambda: rng.randint(-10**6, 10**6),
        lambda: rng.choice([0, 1, -1, 10**30]),
        lambda: rng.uniform(-1e3, 1e3),
        lambda: rng.choice([True, False, None]),
    ])()


def random_doc(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return random_leaf(rng)
    size = rng.choice([0, 1, 2, 3, 5])
    if roll < 0.6:
        return {random_text(rng): random_doc(rng, depth - 1) for _ in range(size)}
    items = [random_doc(rng, depth - 1) for _ in range(size)]
    return tuple(items) if roll < 0.75 else items


def test_writer_matches_json_dumps_indent_2():
    rng = random.Random(9_500)
    kinds = set()
    for _ in range(3_000):
        doc = random_doc(rng, rng.randint(0, 5))
        text = dumps(doc)
        assert text == json.dumps(doc, indent=2)
        kinds.update(k for k, probe in (("{}", "{}"), ("[]", "[]"), ("\\u", "\\u"),
                                        ("null", "null"), ("true", "true"))
                     if probe in text)
    assert kinds == {"{}", "[]", "\\u", "null", "true"}


class Items(list):
    """A list subclass: written as a list."""


@pytest.mark.parametrize("doc", [
    {}, [], (), "", "é\"\\\n\x00", 0, -3, 1.5, None, True, False,
    {"a": (), "b": {}, "c": [(), [{}]]},
    {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
    OrderedDict(b=[1], a=Items([{}, (), Items()])),
], ids=repr)
def test_writer_edge_documents(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_writer_rejects_keys_json_rejects():
    for doc in ({(1, 2): 0}, {b"k": 0}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            dumps(doc)


# ---------------------------------------------------------------------------
# interval-set codec: references


def ref_to_json(s):
    return [p.to_json() for p in s.parts]


def ref_interval_from_json(doc):
    """The reader ``_read_ends`` replaced, with ``Interval``'s checks spelled
    out in ``Fraction``s."""
    lo, hi = frac(doc["lo"]), frac(doc["hi"])
    lo_open, hi_open = doc.get("lo_open", False), doc.get("hi_open", False)
    if type(lo_open) is not bool or type(hi_open) is not bool:
        raise TypeError("interval flags lo_open and hi_open must be booleans")
    for q in (lo, hi):
        if not ZERO <= q <= ONE:
            raise ValueError(f"interval endpoint outside [0,1]: {q}")
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi and (lo_open or hi_open):
        raise ValueError("degenerate interval must be closed on both sides")
    return Interval(lo, hi, not lo_open, not hi_open)


def ref_from_json(doc):
    return canonical(ref_interval_from_json(d) for d in doc)


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
        s = canonical(parts)
        assert s.to_json() == ref_to_json(s)
        assert IntervalSet.from_json(s.to_json()) == s
        doc = loose_json(parts, rng)
        got, expect = IntervalSet.from_json(doc), ref_from_json(doc)
        assert (got.den, got.keys) == (expect.den, expect.keys) == (s.den, s.keys)
        multi += len(s.keys) > 2
    assert IntervalSet.from_json([]) == EMPTY_SET
    assert multi >= 1_000


# ---------------------------------------------------------------------------
# malformed fields

GOOD = {"lo": "1/4", "hi": "1/2", "lo_open": False, "hi_open": True}

MALFORMED = [
    ("zero-denominator", {"lo": "1/0"}, ValueError),
    ("negative-denominator", {"lo": "1/-2"}, ValueError),
    ("above-one", {"hi": "3/2"}, ValueError),
    ("negative", {"lo": -1}, ValueError),
    ("not-a-number", {"lo": "half"}, ValueError),
    ("float", {"hi": 0.5}, TypeError),
    ("float-string", {"hi": "0.5"}, ValueError),
    ("bool", {"lo": True}, TypeError),
    ("null", {"lo": None}, TypeError),
    ("lo-above-hi", {"lo": "2/3", "hi": "1/3"}, ValueError),
    ("open-degenerate", {"lo": "1/2", "hi": "2/4"}, ValueError),
    ("open-degenerate-low", {"lo": "1", "hi": "1", "lo_open": True, "hi_open": False},
     ValueError),
    ("string-flag", {"lo_open": "no"}, TypeError),
    ("int-flag", {"hi_open": 1}, TypeError),
    ("null-flag", {"lo_open": None}, TypeError),
]


@pytest.mark.parametrize("change, error", [(c, e) for _, c, e in MALFORMED],
                         ids=[name for name, _, _ in MALFORMED])
def test_malformed_fields_raise_the_reference_class(change, error):
    doc = {**GOOD, **change}
    for read in (ref_interval_from_json, Interval.from_json,
                 lambda d: IntervalSet.from_json([d]),
                 lambda d: IntervalSet.from_json([GOOD, d])):
        with pytest.raises(error):
            read(doc)


@pytest.mark.parametrize("doc, error", [
    ({"hi": "1/2"}, KeyError),
    ({"lo": "0"}, KeyError),
    ("lo", TypeError),
    (3, TypeError),
    ([], TypeError),
], ids=["missing-lo", "missing-hi", "string", "int", "list"])
def test_malformed_interval_shapes(doc, error):
    for read in (ref_interval_from_json, Interval.from_json,
                 lambda d: IntervalSet.from_json([d])):
        with pytest.raises(error):
            read(doc)
