"""Exact reading and fixed-point rendering of scalars in any mode."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import ceil, isfinite, log2

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


def _int_text(n):
    """The decimal digits of the integer ``n``, at any size: ``str(n)`` refuses
    an int of more than 4,300 digits (``sys.get_int_max_str_digits``), and
    ``Decimal`` has no such limit."""
    return str(Decimal(n))


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
    float, which raises) is rounded from its integer ratio, and printed
    at any number of digits.  Negative ``digits`` are a SpecError.
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
        return f"{sign}{_int_text(whole)}"
    return f"{sign}{_int_text(whole)}.{_int_text(frac).zfill(digits)}"


def format_exact(value):
    """Lossless text form: exact decimal if finite, else p/q, at any number of digits."""
    f = to_fraction(value)
    den = f.denominator
    # den is 2**twos * 5**fives exactly when its odd part is the power of 5
    # whose bit length it has: no loop of divisions, which at thousands of
    # digits cost more than the printing
    twos = (den & -den).bit_length() - 1
    fives = ceil(((den >> twos).bit_length() - 1) / log2(5))
    if den == 5**fives << twos:
        return format_fixed(f, max(twos, fives))
    return f"{_int_text(f.numerator)}/{_int_text(f.denominator)}"
