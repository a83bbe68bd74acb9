"""Scalar arithmetic modes.

Three modes are supported:

* ``FLOAT64`` -- ordinary Python floats,
* ``BigFloat(bits)`` -- mpmath floats at a fixed binary precision,
* ``RATIONAL`` -- :class:`fractions.Fraction`, exactly closed under
  field operations.

A mode object knows how to coerce, parse and test values.  A bigfloat
value carries its precision: ``BigFloat(bits)`` has its own mpmath
context (``mode.mp``), one per precision, and every value the mode makes
is an instance of that context's ``mpf``, ``mode.value_type``, not of
``mpmath.mpf``.  So each operation on such values rounds at the mode's
precision, whatever mpmath's global precision is; an operation that mixes
contexts takes the context of its left operand.  These values pickle, and
an unpickled one is the same precision's ``mpf`` again.
"""

from __future__ import annotations

import copyreg
import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cache

import mpmath
from mpmath.libmp import fzero, normalize, round_nearest

from .errors import IngestError, NonFiniteError, SpecError


@cache
def _context(bits):
    """The mpmath context whose every operation rounds to nearest at ``bits`` bits, one per precision.

    Every mode of that precision shares it, so its precision is never
    changed.  Its ``mpf`` class is made for it, so pickle cannot find it
    by name; the reducer registered here rebuilds a value from its
    precision and its ``_mpf_`` tuple.
    """
    ctx = mpmath.MPContext()
    ctx.prec = bits
    copyreg.pickle(ctx.mpf, lambda v: (_unpickle, (bits, v._mpf_)))
    return ctx


def _unpickle(bits, value):
    return _context(bits).make_mpf(value)


def _from_fraction(p, q, prec):
    """The mpf tuple of p/q (q > 0) rounded to nearest at ``prec`` bits, as libmp's
    ``from_rational(p, q, prec, round_nearest)``, at a cost that barely grows with p and q.

    ``from_rational`` normalises both full-size integers before it divides.
    Here |p| or q is shifted so that the integer quotient has at least
    prec + 3 bits; one ``divmod`` gives it, a remainder sets its lowest bit
    (the sticky bit: the rounding bits below prec then decide exactly as
    the exact quotient would), and libmp's ``normalize`` rounds it once.
    """
    if not p:
        return fzero
    sign, p = int(p < 0), abs(p)
    shift = prec + 3 - p.bit_length() + q.bit_length()
    man, rem = divmod(p << shift, q) if shift >= 0 else divmod(p, q << -shift)
    man |= rem != 0
    return normalize(sign, man, -shift, man.bit_length(), prec, round_nearest)


# the literals that Fraction(text) reads in Python 3.11, in every Python version:
# an integer, p/q with no space around the "/", or a decimal with an optional
# exponent, each run of digits grouped by single underscores
_DIGITS = r"\d+(?:_\d+)*"
_LITERAL = re.compile(rf"(?P<num>[-+]?(?=\d|\.\d)(?:{_DIGITS})?)"
                      rf"(?:/(?P<den>{_DIGITS})|(?:\.(?:{_DIGITS})?)?(?:[eE][-+]?{_DIGITS})?)")


def is_literal(text):
    """Whether ``text``, stripped, is a decimal literal or a p/q fraction string; ``p/0`` is one."""
    return _LITERAL.fullmatch(text.strip()) is not None


def excerpt(text):
    """``text``, or its first and last characters for a long one: a message quotes a literal of any size."""
    return text if len(text) <= 40 else f"{text[:20]}...{text[-10:]}"


def _parse_number(text):
    """Parse a decimal literal or a p/q fraction string to a Fraction (an IngestError if it is neither).

    The digits are read by ``Decimal``, which reads any number of them:
    ``Fraction(text)`` reads them with ``int``, which refuses more than
    4,300 (``sys.get_int_max_str_digits``).
    """
    text = text.strip()
    match = _LITERAL.fullmatch(text)
    if match is None:
        raise IngestError(f"{excerpt(text)!r} is not a number")
    if match["den"] is None:
        try:
            return Fraction(Decimal(text))
        except InvalidOperation:  # an exponent beyond Decimal's range
            raise IngestError(f"the exponent of {excerpt(text)!r} is out of range") from None
    num, den = (int(Decimal(match[part])) for part in ("num", "den"))
    if not den:  # Fraction(num, 0) would print num, at any size, in its error
        raise IngestError(f"{excerpt(text)} has a zero denominator")
    return Fraction(num, den)


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
    return repr(excerpt(x) if isinstance(x, str) else x)


class _Mode:
    """What the three modes share: one ``parse``."""

    def parse(self, text):
        """``text``, a decimal or p/q literal, as the exact number it names, converted once."""
        return self.convert(_parse_number(text))


@dataclass(frozen=True)
class Float64(_Mode):
    name = "float64"
    is_exact = False
    value_type = float
    default_breakdown_threshold = 1e-12

    @property
    def mp(self):  # for zeta only: math has none
        return _context(53)

    def convert(self, x):
        try:
            return float(x)
        except OverflowError:  # an int or Fraction beyond the float range
            raise NonFiniteError(f"{value_text(x)} is beyond the float64 range") from None

    def is_finite(self, x):
        return math.isfinite(x)


MIN_PRECISION_BITS = 64
# far above the 1,200 bits the tests and the digest corpus use; a value of
# 1e11 bits would ask the first conversion for gigabytes
MAX_PRECISION_BITS = 2**20


@dataclass(frozen=True)
class BigFloat(_Mode):
    precision_bits: int = 128

    def __post_init__(self):
        if self.precision_bits < MIN_PRECISION_BITS:
            raise SpecError(f"BigFloat precision {self.precision_bits} bits is below the "
                            f"minimum of {MIN_PRECISION_BITS} bits")
        if self.precision_bits > MAX_PRECISION_BITS:
            raise SpecError(f"BigFloat precision {self.precision_bits} bits is above the "
                            f"maximum of {MAX_PRECISION_BITS} bits")

    @property
    def name(self):
        return f"bigfloat{self.precision_bits}"

    is_exact = False

    @property
    def mp(self):
        return _context(self.precision_bits)

    @property
    def value_type(self):
        return self.mp.mpf

    @property
    def default_breakdown_threshold(self):
        # ~24 bits of headroom above the unit roundoff; a float would be 0.0 from 1,099 bits
        return self.mp.ldexp(1, 24 - self.precision_bits)

    def convert(self, x):
        if isinstance(x, Fraction):
            # rounded once: mpf(p) / q would round p and then the quotient
            return self.mp.make_mpf(_from_fraction(x.numerator, x.denominator, self.precision_bits))
        # an int, float, str or an mpf of any context, rounded once to the precision
        return self.mp.mpf(x)

    def is_finite(self, x):
        # mpmath's exponent is unbounded: mpf("1e400") is finite here
        return mpmath.isfinite(x)


@dataclass(frozen=True)
class Rational(_Mode):
    name = "rational"
    is_exact = True
    value_type = Fraction
    default_breakdown_threshold = 0

    def convert(self, x):
        if type(x) is Fraction:  # as it is, as float(x) returns a float
            return x
        try:
            return Fraction(x)
        except (ValueError, OverflowError):  # Fraction refuses a NaN or an infinite float
            if not self.is_finite(x):
                raise NonFiniteError(f"{value_text(x)} is not finite in rational mode") from None
            raise

    def is_finite(self, x):
        return not isinstance(x, float) or math.isfinite(x)


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
    raise SpecError(f"unknown scalar mode {name!r}: the modes are float64, bigfloat and rational")

