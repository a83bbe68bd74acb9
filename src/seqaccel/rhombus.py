"""The rhombus rule shared by the lattice and epsilon engines.

Both engines build each new column from the columns at labels n and n+1:

    new[i] = carry[i+1] - 1 / (dtop[i] * dmid[i])    (lattice)
    new[i] = carry[i+1] + 1 / dcur[i]                (epsilon)

where d[i] = f[i+1] - f[i] is a difference factor, so the number of
factors names the rule: two subtract the reciprocal of their product,
one adds its reciprocal.  Columns are plain lists indexed from the first
label, and ``None`` marks a BREAKDOWN cell.  A factor d = b - a breaks
down when it is zero (exact mode) or negligibly small against its
operands (float modes): |d| < t·max(|a|, |b|) for the breakdown
threshold t.  Every cell that depends on a BREAKDOWN
cell breaks down too.  In float64 a cell also breaks down when its
factor product underflows to zero or its result is not finite; mpmath
exponents are unbounded, so bigfloat needs no such check.

Bigfloat columns run as raw ``_mpf_`` tuples (:func:`mpf_differences`,
:func:`mpf_rhombus`) on the kernel's own tuple arithmetic, each
operation rounded to nearest at the mode's precision.  :func:`_normalize`,
:func:`_add` and :func:`_reciprocal` keep the integer algorithms of
mpmath.libmp's ``normalize``, ``mpf_add``, ``mpf_mul`` and
``mpf_rdiv_int`` at ``round_nearest``, every rounding step included, so
each result is the tuple the mpf operators give under
``mode.context()``.  They leave out only what finite operands at one
rounding mode never need: the checks for special values, the dispatch
on the rounding mode and mpmath's pure-Python bit count, for which
``int.bit_length`` stands.  No mpf object is built per operation.
:func:`fill` converts at its edges: it unwraps the seed columns and the
threshold once and wraps only the columns it keeps back into mpf, so no
caller sees a tuple and the ambient mpmath precision plays no part.

In bigfloat the guard's outcome is mostly read from the exponents the
values already carry.  With mag(v) = exp + bc for a nonzero mpf, so that
2**(mag(v)-1) <= |v| < 2**mag(v), and gap = mag(d) - mag(t) - mag(M) for
M = max(|a|, |b|), a gap >= 1 keeps the factor and a gap <= -2 breaks it
down, in any rounding mode; only a gap of -1 or 0, or a zero operand,
runs the full comparison, on mpmath.libmp's functions.  On the
benchmark's 256-bit alt_harmonic (300, 30) tables that is under 0.3% of
the differences.

:func:`fill` is the one driver both engines call: it runs the rule
from a tuple of seed columns and keeps only the live columns while it
does.  It drops each new column's trailing BREAKDOWN cells, so the
kernel walks only the live prefix: on a sequence the lattice does not
accelerate, that is a small part of the table.
"""

from __future__ import annotations

from math import isfinite

import mpmath
from mpmath.libmp import fzero, mpf_abs, mpf_gt, mpf_lt, mpf_mul, round_nearest

from .errors import SpecError, WindowError
from .modes import BigFloat, Float64, value_text


def _normalize(sign, man, exp, prec):
    """(-1)**sign·man·2**exp, ``man`` >= 0, as an ``_mpf_`` tuple rounded to nearest at ``prec`` bits.

    This is mpmath's ``normalize`` at ``round_nearest``: a mantissa wider
    than ``prec`` is rounded half to even, the trailing zeros are stripped,
    so the mantissa is odd, and a zero mantissa gives ``fzero``.
    """
    if not man:
        return fzero
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)  # the kept bits and the half bit below them
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    if not man & 1:
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return sign, man, exp, man.bit_length()


def _add(s, t, prec, negate=0):
    """s + t, or s - t with ``negate``, of finite ``_mpf_`` tuples, rounded as ``mpf_add`` rounds."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    tsign ^= negate
    if not (sman and tman):
        return _normalize(tsign, tman, texp, prec) if tman else _normalize(ssign, sman, sexp, prec)
    if sexp < texp:
        ssign, sman, sexp, sbc, tsign, tman, texp, tbc = (tsign, tman, texp, tbc,
                                                          ssign, sman, sexp, sbc)
    offset = sexp - texp
    if offset > 100 and sexp + sbc - texp - tbc > prec + 4:
        # mpf_add's shortcut for a t far below s: a ±1 past prec + 4 more bits of s
        # stands for t (for an s wider than prec it may round unlike the exact sum)
        return _normalize(ssign, (sman << prec + 4) + (1 if ssign == tsign else -1),
                          sexp - prec - 4, prec)
    man = sman << offset
    if ssign == tsign:
        man += tman
    else:
        man -= tman
        if man < 0:
            ssign, man = ssign ^ 1, -man
    return _normalize(ssign, man, texp, prec)


def _reciprocal(t, prec, negate=0):
    """1/t, or -1/t with ``negate``, of a nonzero ``_mpf_`` tuple, rounded as ``mpf_rdiv_int`` rounds.

    The quotient carries 5 bits past ``prec`` and one sticky bit, set for
    any remainder, below them.
    """
    sign, man, exp, bc = t
    extra = prec + bc + 5
    quot, rem = divmod(1 << extra, man)
    return _normalize(sign ^ negate, quot << 1 | (rem > 0), -exp - extra - 1, prec)


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
        return [None if a is None or b is None or not (d := _add(b, a, prec, 1))[1]
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
        d = _add(b, a, prec, 1)
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


def rhombus(carry, factors, mode):
    """New column by the rule the factors name: ``c + 1/d`` from one, ``c - 1/(p·d)`` from two.

    Cell i takes c = carry[i+1] and p, d from cell i of the ``factors``,
    columns from :func:`differences`.  The new column is as long as the
    shortest of ``carry[1:]`` and the factors.  The product is formed in
    the same pass as the reciprocal and the sum, as in :func:`mpf_rhombus`.
    """
    float64 = isinstance(mode, Float64)
    if len(factors) == 1:
        # a single factor from differences is never zero
        if float64:
            return [None if c is None or d is None or not isfinite(r := c + 1 / d) else r
                    for c, d in zip(carry[1:], factors[0])]
        return [None if c is None or d is None else c + 1 / d
                for c, d in zip(carry[1:], factors[0])]
    top, mid = factors
    if float64:
        # a float64 product of nonzero factors can underflow to zero
        return [None if c is None or p is None or d is None or not (q := p * d)
                or not isfinite(r := c - 1 / q) else r
                for c, p, d in zip(carry[1:], top, mid)]
    # exact mode: a product of nonzero factors is nonzero
    return [None if c is None or p is None or d is None else c - 1 / (p * d)
            for c, p, d in zip(carry[1:], top, mid)]


def mpf_rhombus(carry, factors, prec):
    """:func:`rhombus` of bigfloat ``_mpf_`` tuple columns, rounded to nearest at ``prec`` bits.

    ``factors`` are columns from :func:`mpf_differences`, one (epsilon) or
    two (lattice) as for :func:`rhombus`.  A product of nonzero factors is
    nonzero and mpmath exponents are unbounded, so no cell needs a
    further check.
    """
    if len(factors) == 1:
        return [None if c is None or d is None else _add(c, _reciprocal(d, prec), prec)
                for c, d in zip(carry[1:], factors[0])]
    top, mid = factors
    # c - 1/q is c + (-1)/q, and q is the product p·d rounded as mpf_mul rounds it
    return [None if c is None or p is None or d is None
            else _add(c, _reciprocal(_normalize(p[0] ^ d[0], p[1] * d[1], p[2] + d[2], prec),
                                     prec, 1), prec)
            for c, p, d in zip(carry[1:], top, mid)]


def _mpf_column(col):
    """A column of ``_mpf_`` tuples as mpf values, ``None`` kept."""
    make_mpf = mpmath.mp.make_mpf
    return [None if v is None else make_mpf(v) for v in col]


def fill(seq, seeds, max_order, threshold, keep):
    """{m: (live prefix, nominal length)} for the columns m = 1 .. w (max_order + 1) with keep(m).

    The w = len(seeds) seed columns are columns 1 .. w, and each later
    column m is the rhombus of column m-w with the differences of
    columns m-1, m-2, ..., m-w+1, in that order, so one unit of order
    takes w columns: three seeds run the lattice rule and two Wynn's
    epsilon rule (:func:`rhombus`).  Only the w live columns and the
    differences of all but the oldest are held; each column is
    differenced once.
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
        live = [[v._mpf_ for v in c] for c in seeds]
    else:
        diff, step, arith = differences, rhombus, mode
        live = list(seeds)
    factors = [diff(c, arith, threshold) for c in reversed(live[1:-1])]
    for m in range(width + 1, width * (max_order + 1) + 1):
        factors = [diff(live[-1], arith, threshold)] + factors[:width - 2]
        new = step(live[0], factors, arith)
        while new and new[-1] is None:
            new.pop()
        if keep(m):
            columns[m] = (_mpf_column(new) if bigfloat else new, max(size - m + width, 0))
        live = live[1:] + [new]
    return columns
