"""Scalar arithmetic modes.

Three modes are supported:

* ``FLOAT64`` -- ordinary Python floats,
* ``BigFloat(bits)`` -- mpmath floats at a fixed binary precision,
* ``RATIONAL`` -- :class:`fractions.Fraction`, exactly closed under
  field operations.

A mode object knows how to coerce, parse and test values, and provides
a context manager that pins the working precision for the duration of
a table computation.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import from_rational, round_nearest

from .errors import NonFiniteError


def _parse_number(text):
    """Parse a decimal literal or a p/q fraction string to a Fraction."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"{text.strip()} has a zero denominator") from None


def value_text(x):
    """repr(x), but an int or Fraction as ``p/q``, or as ``~1e<exponent>`` beyond the float range.

    Python refuses str() of an int over 4,300 digits, so a message must
    not print such a value's digits.
    """
    if isinstance(x, (int, Fraction)):
        if abs(x) > sys.float_info.max:
            exponent = math.floor(math.log10(abs(x.numerator)) - math.log10(x.denominator))
            return f"~{'-' if x < 0 else ''}1e{exponent}"
        return str(x)
    return repr(x)


@dataclass(frozen=True)
class Float64:
    name = "float64"
    is_exact = False
    value_type = float
    default_breakdown_threshold = 1e-12

    def convert(self, x):
        try:
            return float(x)
        except OverflowError:  # an int or Fraction beyond the float range
            raise NonFiniteError(f"{value_text(x)} is beyond the float64 range") from None

    def is_finite(self, x):
        return math.isfinite(x)

    def parse(self, text):
        try:
            return float(_parse_number(text))
        except OverflowError:
            raise ValueError(f"{text.strip()} is beyond the float64 range") from None

    def context(self):
        return nullcontext()


@dataclass(frozen=True)
class BigFloat:
    precision_bits: int = 128

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("BigFloat precision must be at least 64 bits")

    @property
    def name(self):
        return f"bigfloat{self.precision_bits}"

    is_exact = False
    value_type = mpmath.mpf

    @property
    def default_breakdown_threshold(self):
        # ~24 bits of headroom above the unit roundoff; a float would be 0.0 from 1,099 bits
        return mpmath.ldexp(1, 24 - self.precision_bits)

    def convert(self, x):
        if isinstance(x, Fraction):
            # rounded once: mpf(p) / q would round p and then the quotient
            return mpmath.mp.make_mpf(
                from_rational(x.numerator, x.denominator, self.precision_bits, round_nearest))
        with self.context():
            return mpmath.mpf(x)

    def is_finite(self, x):
        # mpmath's exponent is unbounded: mpf("1e400") is finite here
        return mpmath.isfinite(x)

    def parse(self, text):
        return self.convert(_parse_number(text))

    def context(self):
        return mpmath.mp.workprec(self.precision_bits)


@dataclass(frozen=True)
class Rational:
    name = "rational"
    is_exact = True
    value_type = Fraction
    default_breakdown_threshold = 0

    def convert(self, x):
        try:
            return Fraction(x)
        except (ValueError, OverflowError):  # Fraction refuses a NaN or an infinite float
            if not self.is_finite(x):
                raise NonFiniteError(f"{value_text(x)} is not finite in rational mode") from None
            raise

    def is_finite(self, x):
        return not isinstance(x, float) or math.isfinite(x)

    def parse(self, text):
        return _parse_number(text)

    def context(self):
        return nullcontext()


FLOAT64 = Float64()
RATIONAL = Rational()


def mode_from_name(name, precision_bits=128):
    name = name.lower()
    if name == "float64":
        return FLOAT64
    if name == "rational":
        return RATIONAL
    if name == "bigfloat":
        return BigFloat(precision_bits)
    raise ValueError(f"unknown scalar mode {name!r}")

