"""Exact rational scalars, their string form used in all JSON payloads, and
the required-field read and message placing that the JSON readers share."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints (not bools), strings like "2/3", and Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def exact(q):
    """Return ``q`` when it is a Fraction or a non-bool int, as ``frac``
    accepts it; raise ``frac``'s TypeError for anything else."""
    if not isinstance(q, (Fraction, int)) or isinstance(q, bool):
        raise TypeError(f"cannot interpret {q!r} as an exact rational")
    return q


def unit(q, what: str, top_open: bool = False):
    """Return ``q`` when it lies in [0,1], or in J = [0,1) when ``top_open``.

    ``q`` must be ``exact``.  The check compares the numerator and
    denominator as ints, which is exact because a Fraction keeps its
    denominator positive: in J the numerator stays below it."""
    # the exact type first: nearly every caller passes a Fraction
    if type(q) is not Fraction:
        exact(q)
    if not 0 <= q.numerator <= q.denominator - top_open:
        raise ValueError(f"{what} outside [0,1{')' if top_open else ']'}: {q}")
    return q


def parse_ratio(text: str) -> tuple[int, int]:
    """The integers (p, q) of "p/q", or (p, 1) of "p", with the sign moved
    to p so that q > 0; p/q is not reduced.  Around the whole text blanks
    are allowed; each part is ASCII digits after at most one "-".  Rejects
    floats, zero denominators and any other form with ValueError."""
    text = text.strip()
    num, slash, den = text.partition("/")
    # int() first, so its messages stay; it also takes a "+", "_", blanks
    # and non-ASCII digits in a part, which the grammar then rejects
    p, q = int(num), int(den) if slash else 1
    if q == 0:
        raise ValueError(f"zero denominator in {text!r}")
    if not (text.isascii() and num.removeprefix("-").isdigit()
            and (not slash or den.removeprefix("-").isdigit())):
        raise ValueError(f"not a \"p/q\" or \"p\" rational: {text!r}")
    return (-p, -q) if q < 0 else (p, q)


def ratio(value) -> tuple[int, int]:
    """``frac(value)`` as integers (p, q) with q > 0, not reduced; strings
    are read by ``parse_ratio`` without building a Fraction."""
    if isinstance(value, str):
        return parse_ratio(value)
    return frac(value).as_integer_ratio()


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction, by the grammar of
    ``parse_ratio``; anything else raises ValueError."""
    return Fraction(*parse_ratio(text))


def format_ratio(n: int, d: int) -> str:
    """n/d (d > 0) in lowest terms as "p/q", or "p" when it is an integer."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" for integers."""
    return format_ratio(q.numerator, q.denominator)


def required_field(doc: dict, key: str, where: str):
    """``doc[key]`` of the JSON object ``where``; a ``doc`` that is not an
    object raises TypeError, and a missing key ValueError, naming ``where``."""
    if not isinstance(doc, dict):
        raise TypeError(f"{where} must be an object")
    if key not in doc:
        raise ValueError(f"{where} has no {key!r} field")
    return doc[key]


def located(exc: Exception, where: str) -> Exception:
    """``exc`` if its message starts with ``where``, else its class on ``where: msg``."""
    return exc if str(exc).startswith(where) else type(exc)(f"{where}: {exc}")
