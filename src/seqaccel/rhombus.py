"""The rhombus rule shared by the lattice and epsilon engines.

Both engines build each new column from the columns at labels n and n+1:

    new[i] = carry[i+1] - 1 / (dtop[i] * dmid[i])    (lattice)
    new[i] = carry[i+1] + 1 / dcur[i]                (epsilon)

where d[i] = f[i+1] - f[i] is a difference factor.  Columns are plain
lists indexed from the first label, and ``None`` marks a BREAKDOWN
cell.  A factor d = b - a breaks down when it is zero (exact mode) or
negligibly small against its operands (float modes): |d| < t·max(|a|, |b|)
for the breakdown threshold t.  Every cell that depends on a BREAKDOWN
cell breaks down too.  In float64 a cell also breaks down when its
factor product underflows to zero or its result is not finite; mpmath
exponents are unbounded, so bigfloat needs no such check.

Bigfloat columns run as raw ``_mpf_`` tuples through ``mpmath.libmp``
(:func:`mpf_differences`, :func:`mpf_rhombus`), each operation rounded
to nearest at the mode's precision, which is what the mpf operators do
under ``mode.context()``, without building an mpf object per operation.
:func:`fill` converts at its edges: it unwraps the seed columns and the
threshold once and wraps only the columns it keeps back into mpf, so no
caller sees a tuple and the ambient mpmath precision plays no part.

In bigfloat the guard's outcome is mostly read from the exponents the
values already carry.  With mag(v) = exp + bc for a nonzero mpf, so that
2**(mag(v)-1) <= |v| < 2**mag(v), and gap = mag(d) - mag(t) - mag(M) for
M = max(|a|, |b|), a gap >= 1 keeps the factor and a gap <= -2 breaks it
down, in any rounding mode; only a gap of -1 or 0, or a zero operand,
runs the full mpf comparison.  On the benchmark's 256-bit alt_harmonic
(300, 30) tables that is under 0.3% of the differences.

:func:`fill` is the one driver both engines call: it runs the rule
from a tuple of seed columns and keeps only the live columns while it
does.  It drops each new column's trailing BREAKDOWN cells, so the
kernel walks only the live prefix: on a sequence the lattice does not
accelerate, that is a small part of the table.
"""

from __future__ import annotations

from math import isfinite

import mpmath
from mpmath.libmp import (
    fzero,
    mpf_abs,
    mpf_add,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_rdiv_int,
    mpf_sub,
    round_nearest,
)

from .errors import SpecError, WindowError
from .modes import BigFloat, Float64, value_text


def differences(col, mode, threshold):
    """Forward differences of ``col``, ``None`` where a factor breaks down.

    ``col`` holds floats (float64) or Fractions (exact mode), and
    ``threshold`` is in the mode, as :func:`fill` converts it.  A factor
    d = b - a breaks down when it is zero or, in float64, when
    |d| < t·max(|a|, |b|) for t = ``threshold``.  Exact mode's threshold
    is always zero, which leaves only the zero test.
    """
    if mode.is_exact or not threshold:
        return [None if a is None or b is None else (b - a) or None
                for a, b in zip(col, col[1:])]
    # each element is an operand of two differences: take its magnitude once
    mags = [None if v is None else abs(v) for v in col]
    return [None if a is None or b is None or not (d := b - a)
            or abs(d) < threshold * (ma if ma >= mb else mb) else d
            for a, b, ma, mb in zip(col, col[1:], mags, mags[1:])]


def mpf_differences(col, prec, threshold):
    """:func:`differences` of a bigfloat column of ``_mpf_`` tuples.

    ``threshold`` is an ``_mpf_`` tuple too, and every operation rounds
    to nearest at ``prec`` bits.  A factor d = b - a breaks down when it
    is zero or when |d| < t·max(|a|, |b|), and the outcome is read from
    exponents wherever they settle it.  A nonzero mpf v has the magnitude
    mag(v) = exp + bc, so 2**(mag(v)-1) <= |v| < 2**mag(v), and with
    mag(M) = max(mag(a), mag(b)) the rounded product t·M lies in
    [2**(mag(t)+mag(M)-2), 2**(mag(t)+mag(M))] in any rounding mode.  So
    for gap = mag(d) - mag(t) - mag(M):

    * gap >= 1 proves |d| >= t·M: the factor is kept;
    * gap <= -2 proves |d| < t·M: the factor breaks down.

    Only gap -1 or 0, or a zero a or b, takes the full comparison; a zero
    threshold leaves only the zero test.
    """
    if threshold == fzero:
        return [None if a is None or b is None or not (d := mpf_sub(b, a, prec, round_nearest))[1]
                else d for a, b in zip(col, col[1:])]
    # mag(v) of each element once, None for a zero or BREAKDOWN element; an
    # infinite or NaN threshold (mantissa 0) has no magnitude, so every cell is compared
    _, tman, texp, tbc = threshold
    tmag = texp + tbc
    mags = ([None if v is None or not v[1] else v[2] + v[3] for v in col]
            if tman else [None] * len(col))
    out = []
    for a, b, ma, mb in zip(col, col[1:], mags, mags[1:]):
        if a is None or b is None:
            out.append(None)
            continue
        d = mpf_sub(b, a, prec, round_nearest)
        _, man, exp, bc = d
        if not man:
            out.append(None)
            continue
        if ma is not None and mb is not None:
            gap = exp + bc - tmag - (ma if ma >= mb else mb)
            if gap >= 1:
                out.append(d)
                continue
            if gap <= -2:
                out.append(None)
                continue
        abs_a, abs_b = mpf_abs(a, prec, round_nearest), mpf_abs(b, prec, round_nearest)
        bound = mpf_mul(threshold, abs_b if mpf_gt(abs_b, abs_a) else abs_a, prec, round_nearest)
        out.append(None if mpf_lt(mpf_abs(d, prec, round_nearest), bound) else d)
    return out


def rhombus(carry, factors, subtract, mode):
    """New column ``carry[i+1] -/+ 1 / prod(f[i] for f in factors)``.

    ``factors`` are columns from :func:`differences`.  The new column is
    as long as the shortest of ``carry[1:]`` and the factors.  The last
    factor is multiplied in the same pass as the reciprocal and the sum,
    as in :func:`mpf_rhombus`.
    """
    prod = factors[0]
    for f in factors[1:-1]:
        prod = [None if p is None or d is None else p * d for p, d in zip(prod, f)]
    float64 = isinstance(mode, Float64)
    if len(factors) == 1:
        # a single factor from differences is never zero
        if float64:
            return [None if c is None or p is None
                    or not isfinite(r := c - 1 / p if subtract else c + 1 / p) else r
                    for c, p in zip(carry[1:], prod)]
        return [None if c is None or p is None else c - 1 / p if subtract else c + 1 / p
                for c, p in zip(carry[1:], prod)]
    if float64:
        # a float64 product of nonzero factors can underflow to zero
        return [None if c is None or p is None or d is None or not (q := p * d)
                or not isfinite(r := c - 1 / q if subtract else c + 1 / q) else r
                for c, p, d in zip(carry[1:], prod, factors[-1])]
    # exact mode: a product of nonzero factors is nonzero
    return [None if c is None or p is None or d is None
            else c - 1 / (p * d) if subtract else c + 1 / (p * d)
            for c, p, d in zip(carry[1:], prod, factors[-1])]


def mpf_rhombus(carry, factors, subtract, prec):
    """:func:`rhombus` of bigfloat ``_mpf_`` tuple columns, rounded to nearest at ``prec`` bits.

    ``factors`` are columns from :func:`mpf_differences`.  The last
    factor is multiplied in the same pass as the reciprocal and the sum.
    A product of nonzero factors is nonzero and mpmath exponents are
    unbounded, so no cell needs a further check.
    """
    # c - 1/p is c + (-1)/p: rounding to nearest is symmetric in the sign
    one = -1 if subtract else 1
    prod = factors[0]
    for f in factors[1:-1]:
        prod = [None if p is None or d is None else mpf_mul(p, d, prec, round_nearest)
                for p, d in zip(prod, f)]
    if len(factors) == 1:
        return [None if c is None or p is None
                else mpf_add(c, mpf_rdiv_int(one, p, prec, round_nearest), prec, round_nearest)
                for c, p in zip(carry[1:], prod)]
    return [None if c is None or p is None or d is None
            else mpf_add(c, mpf_rdiv_int(one, mpf_mul(p, d, prec, round_nearest),
                                         prec, round_nearest), prec, round_nearest)
            for c, p, d in zip(carry[1:], prod, factors[-1])]


def _mpf_column(col):
    """A column of ``_mpf_`` tuples as mpf values, ``None`` kept."""
    make_mpf = mpmath.mp.make_mpf
    return [None if v is None else make_mpf(v) for v in col]


def fill(seq, seeds, max_order, subtract, threshold, keep):
    """{m: (live prefix, nominal length)} for the columns m = 1 .. w (max_order + 1) with keep(m).

    The w = len(seeds) seed columns are columns 1 .. w, and each later
    column m is the rhombus of column m-w with the differences of
    columns m-1, m-2, ..., m-w+1, in that order, so one unit of order
    takes w columns.  Only the w live columns and the differences of
    all but the oldest are held; each column is differenced once.
    A seed column's nominal length is len(seq), column m's (m > w) is
    len(seq) - (m - w) (0 when that is negative), and the cells past its
    live prefix, which ends in a VALID cell or is empty, are BREAKDOWN.
    ``threshold`` None means the mode's default; a negative one, or a
    nonzero one in exact mode (where only a zero factor breaks down), is
    a SpecError.
    """
    if max_order < 0:
        raise WindowError("max_order must be nonnegative")
    mode = seq.mode
    if threshold is None:
        threshold = mode.default_breakdown_threshold
    elif threshold < 0:
        raise SpecError(f"breakdown threshold {value_text(threshold)} is negative")
    elif mode.is_exact and threshold != 0:
        raise SpecError(f"breakdown threshold {value_text(threshold)} has no effect in "
                        f"{mode.name} mode, where only a zero difference breaks down")
    threshold = mode.convert(threshold)
    width, size = len(seeds), len(seq)
    columns = {m: (c, size) for m, c in enumerate(seeds, 1) if keep(m)}
    bigfloat = isinstance(mode, BigFloat)
    if bigfloat:
        # the kernel runs on _mpf_ tuples: the seeds and the threshold are
        # unwrapped here once, and only the kept columns are wrapped again
        diff, step, arith = mpf_differences, mpf_rhombus, mode.precision_bits
        threshold = threshold._mpf_
        live = [[None if v is None else v._mpf_ for v in c] for c in seeds]
    else:
        diff, step, arith = differences, rhombus, mode
        live = list(seeds)
    factors = [diff(c, arith, threshold) for c in reversed(live[1:-1])]
    for m in range(width + 1, width * (max_order + 1) + 1):
        factors = [diff(live[-1], arith, threshold)] + factors[:width - 2]
        new = step(live[0], factors, subtract, arith)
        while new and new[-1] is None:
            new.pop()
        if keep(m):
            columns[m] = (_mpf_column(new) if bigfloat else new, max(size - m + width, 0))
        live = live[1:] + [new]
    return columns
