"""Exact rational scalars and their string form used in all JSON payloads."""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints, strings like "2/3", and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction. Rejects floats and zero
    denominators with ValueError."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
