"""Exact reading and fixed-point rendering of scalars in any mode."""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

from mpmath.libmp import to_rational

from .errors import SpecError


def integer_ratio(value):
    """(numerator, denominator) of a scalar, with a positive denominator."""
    if isinstance(value, (Fraction, int, float)):
        return value.as_integer_ratio()
    if hasattr(value, "_mpf_"):  # an mpf of any mpmath context
        p, q = to_rational(value._mpf_)
        return int(p), int(q)
    raise TypeError(f"cannot render {type(value).__name__}")


def to_fraction(value):
    if isinstance(value, Fraction):
        return value
    return Fraction(*integer_ratio(value))


def format_fixed(value, digits):
    """Decimal string with ``digits`` places, rounding half to even.

    The exact value is rounded, never an intermediate decimal, and a
    result that rounds to zero has no sign.  A finite float goes through
    Python's ``'f'`` format, which rounds its exact binary value in the
    same way; every other value (Fraction, int, mpf, and a non-finite
    float, which raises) is rounded from its integer ratio.  Negative
    ``digits`` are a SpecError.
    """
    if digits < 0:
        raise SpecError(f"digits must be >= 0, got {digits}")
    if isinstance(value, float) and isfinite(value):
        # one fixed spec: cheaper than a nested f-string spec, and a float
        # subclass's own __format__ plays no part
        text = "%.*f" % (digits, value)
        return text[1:] if text[0] == "-" and not text.strip("-0.") else text
    num, den = integer_ratio(value)
    scale = 10**digits
    floor, rem = divmod(num * scale, den)
    double = 2 * rem
    if double > den or (double == den and floor % 2):
        floor += 1
    sign = "-" if floor < 0 else ""
    floor = abs(floor)
    whole, frac = divmod(floor, scale)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def format_exact(value):
    """Lossless text form: exact decimal if finite, else p/q."""
    f = to_fraction(value)
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        return format_fixed(f, max(twos, fives))
    return f"{f.numerator}/{f.denominator}"
