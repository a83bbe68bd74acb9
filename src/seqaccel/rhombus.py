"""The rhombus rule shared by the lattice and epsilon engines.

Both engines build each new column from the columns at labels n and n+1
by one rule:

    new[i] = carry[i+1] - 1 / (top[i] * mid[i])

The lattice's two factors are the differences d[i] = f[i+1] - f[i] of its
two newest columns.  Wynn's epsilon rule, new[i] = carry[i+1] + 1 / d[i],
is the same rule with the constant -1 as its top factor, since
c + 1/d = c - 1/((-1)·d): :func:`fill` hands epsilon that constant, and
each kernel has one step and one cell.  The -1 changes no cell's bits:

* float64: (-1.0)·d = -d exactly, 1/(-d) = -(1/d) under round-to-nearest,
  and c - (-x) is c + x; the product is never zero, so the underflow
  test never fires;
* bigfloat: the product of a 1-bit mantissa and d is exact, because
  every kernel tuple has at most prec bits, so the reciprocal and the sum
  are the only roundings, those of c + 1/d;
* exact: the product's gcds are 1, so the cell makes the one
  :func:`_pair_add` call that c + 1/d makes.

Columns are plain lists indexed from the first label, and ``None``
marks a BREAKDOWN cell.  A factor d = b - a breaks down when it is zero
(exact mode) or negligibly small against its operands (float modes):
|d| < t·max(|a|, |b|) for the breakdown threshold t.  Each float kernel
has this one guard for every t: at t = 0 no nonzero |d| is below
0·max(|a|, |b|), so only the zero test is left, with no separate path.
Every cell that depends on a BREAKDOWN cell breaks down too.  In float64
a cell also breaks down when its factor product underflows to zero or
its result is not finite; mpmath exponents are unbounded, so bigfloat
needs no such check.

There are three kernels, one per kind of number:

* float64 columns run as floats (:func:`differences`, :func:`rhombus`);
* bigfloat columns run as raw ``_mpf_`` tuples (:func:`mpf_differences`,
  :func:`mpf_rhombus`);
* exact columns run as reduced ``(p, q)`` integer pairs, q > 0
  (:func:`pair_differences`, :func:`pair_rhombus`).

The tuple kernel has its own arithmetic, each operation rounded to
nearest at the mode's precision, with one call per cell and one per
difference: :func:`_lattice_cell` forms the product p·d, then -1/q, then
the sum with c, each step rounded inline; :func:`_add` forms each
difference the same way.
The steps are those of mpmath.libmp's ``mpf_mul``, ``mpf_rdiv_int`` (5
guard bits and a sticky bit) and ``mpf_add`` at ``round_nearest``, in
that order, and every rounding is ``normalize``'s.  Only a zero operand
and ``mpf_add``'s sticky shortcut for one operand far below the other
leave the inline path: the cells hand them to :func:`_add`, which hands
them to :func:`_normalize`.  So each result has the value the mpf
operators of the mode's context (``mode.mp``) give, with an exact bit
count bc <= prec.  The kernel leaves out what finite operands at one
rounding mode never need: the checks for special values, the dispatch on
the rounding mode and mpmath's pure-Python bit count, for which
``int.bit_length`` stands.  It also leaves out ``normalize``'s stripping
of a mantissa's trailing zeros, so a kernel tuple is not always
canonical: same value, exact bc, canonical at the edge.  A trailing zero
changes no value, and with bc exact, exp + bc, the guard's exponent
rule, the reciprocal's quotient and sticky bit and the libmp comparisons
come out as on the canonical tuple.  :func:`_mpf_column` strips the
zeros once, from each cell :func:`fill` keeps, so every mpf outside the
kernel is canonical.  No mpf object is built per operation.

The pair kernel reduces each result as Fraction does (:func:`_pair_add`,
:func:`_pair_lattice_cell`): a sum takes the gcd of the denominators
first and one more gcd only when that exceeds 1, and a product is
cross-cancelled with two gcds.  A reduced pair is unique, so each cell
is the pair of the Fraction the rule gives, and no Fraction is built
per operation.  (One gcd of the unreduced products per cell is cheaper
on small entries, but its products grow, and it is slower on long
sequences.)

:func:`fill` converts at its edges: it unwraps the seed columns (and in
bigfloat the threshold) once and wraps only the columns it keeps back
into the mode's mpf values (its context's ``make_mpf``) or Fractions, so
no caller sees a tuple or a pair, and the ambient mpmath precision plays
no part.

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

from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd, isfinite

from mpmath.libmp import fzero, mpf_abs, mpf_gt, mpf_lt, mpf_mul, round_nearest

from .errors import SpecError, WindowError
from .modes import BigFloat, value_text


def _normalize(sign, man, exp, prec):
    """(-1)**sign·man·2**exp, ``man`` >= 0, rounded to nearest at ``prec`` bits, as a kernel tuple.

    This is the rounding of mpmath's ``normalize`` at ``round_nearest``: a
    mantissa wider than ``prec`` is rounded half to even, and a zero
    mantissa gives ``fzero``.  Unlike ``normalize`` it keeps the
    mantissa's trailing zeros: the tuple has the value mpmath gives and an
    exact ``bc`` <= ``prec``, and :func:`_mpf_column` makes it canonical
    at the edge.  A rounding that carries to 2**prec is stored as
    2**(prec-1) one exponent up, so ``bc`` stays within ``prec``.  Every
    other step of the kernel rounds inline in the same way; this function
    serves :func:`_add`'s zero operands and its sticky shortcut, and the
    tests take it as the reference.
    """
    if not man:
        return fzero
    bc = man.bit_length()
    n = bc - prec
    if n <= 0:
        return sign, man, exp, bc
    t = man >> (n - 1)  # the kept bits and the half bit below them
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        man = (t >> 1) + 1
        if man >> prec:  # carried to 2**prec
            return sign, man >> 1, exp + n + 1, prec
        return sign, man, exp + n, prec
    return sign, t >> 1, exp + n, prec


def _add(s, t, prec, negate=0):
    """s + t, or s - t with ``negate``, of finite ``_mpf_`` tuples, rounded as ``mpf_add`` rounds.

    The result has the value of ``mpf_add``'s, with an exact ``bc``, but
    may keep trailing zeros.  The sum is rounded inline, as
    :func:`_normalize` rounds; a zero operand and the shortcut for a t
    far below s call :func:`_normalize`.  That shortcut gives the
    correctly rounded sum whenever s fits in ``prec`` bits, as every
    kernel tuple does, so which operand's exponent is the larger does not
    change the value even when the operands are not canonical.  The
    cell (:func:`_lattice_cell`) forms its sum the same way, inline, and
    calls this function only for a zero operand or the shortcut.
    """
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
    n = man.bit_length() - prec
    if n <= 0:
        return (ssign, man, texp, n + prec) if man else fzero
    r = man >> (n - 1)  # the kept bits and the half bit below them
    if r & 1 and (r & 2 or man & ((1 << (n - 1)) - 1)):
        r += 2  # rounded up
        if r >> prec + 1:  # carried to 2**prec
            return ssign, r >> 2, texp + n + 1, prec
    return ssign, r >> 1, texp + n, prec


def _lattice_cell(c, p, d, prec):
    """One cell in one call: c - 1/(p·d) of ``_mpf_`` tuples, p, d nonzero, rounded as mpmath rounds it.

    The product q = p·d is rounded as ``mpf_mul`` rounds it, -1/q as
    ``mpf_rdiv_int`` rounds it (5 guard bits past ``prec`` and a sticky
    bit, set for any remainder, below them) and the sum as ``mpf_add``
    rounds it, each inline, as :func:`_normalize` rounds.  Trailing zeros
    in q's mantissa scale the dividend and the remainder alike, so the
    quotient and the sticky bit are those of canonical q.  A product that
    fits in ``prec`` bits, such as one with a label difference of 1, or
    epsilon's (-1)·d, is exact.  Rounded, q has at most ``prec`` bits,
    so -1/q never carries to a power of two (only a q wider than
    ``prec`` + 1 bits would).  The sum is formed and rounded inline as
    :func:`_add` does it; only a zero c, or c and -1/q so far apart that
    ``mpf_add`` takes its shortcut, is left to :func:`_add`.
    """
    psign, pman, pexp, _ = p
    dsign, dman, dexp, _ = d
    man = pman * dman
    exp = pexp + dexp
    bc = man.bit_length()
    n = bc - prec
    if n > 0:
        r = man >> (n - 1)  # the kept bits and the half bit below them
        if r & 1 and (r & 2 or man & ((1 << (n - 1)) - 1)):
            r += 2  # rounded up
            if r >> prec + 1:  # carried to 2**prec
                r >>= 1
                n += 1
        man = r >> 1
        exp += n
        bc = prec
    extra = prec + bc + 5
    quot, rem = divmod(1 << extra, man)
    man = quot << 1 | (rem > 0)
    n = man.bit_length() - prec  # 7 or 8: the reciprocal is always rounded
    r = man >> (n - 1)
    if r & 1 and (r & 2 or man & ((1 << (n - 1)) - 1)):
        r += 2  # rounded up
    # -1/q: the product's sign, flipped
    sign, man, exp = psign ^ dsign ^ 1, r >> 1, n - exp - extra - 1
    # the sum c + t for t = (sign, man, exp), of prec bits, as _add forms it; a
    # zero c and mpf_add's shortcut for one operand far below the other go to _add
    csign, cman, cexp, cbc = c
    offset = cexp - exp
    gap = offset + cbc - prec  # mag(c) - mag(t)
    if not cman or offset > 100 and gap > prec + 4 or offset < -100 and gap < -prec - 4:
        return _add(c, (sign, man, exp, prec), prec)
    if offset > 0:
        cman <<= offset
    elif offset:
        man <<= -offset
        exp = cexp
    if csign == sign:
        man += cman
    else:
        man -= cman
        if man < 0:
            sign, man = csign, -man
    n = man.bit_length() - prec
    if n <= 0:
        return (sign, man, exp, n + prec) if man else fzero
    r = man >> (n - 1)
    if r & 1 and (r & 2 or man & ((1 << (n - 1)) - 1)):
        r += 2  # rounded up
        if r >> prec + 1:  # carried to 2**prec
            return sign, r >> 2, exp + n + 1, prec
    return sign, r >> 1, exp + n, prec


def differences(col, threshold):
    """Forward differences of a float64 column, ``None`` where a factor breaks down.

    A factor d = b - a breaks down when it is zero or when
    |d| < t·max(|a|, |b|) for t = ``threshold``, a float as :func:`fill`
    converts it.  This one guard serves every threshold: at t = 0 no
    |d| is below 0·max(|a|, |b|), so only the zero test breaks a factor
    down.
    """
    # each element is an operand of two differences: take its magnitude once
    mags = [None if v is None else abs(v) for v in col]
    return [None if a is None or b is None or not (d := b - a)
            or abs(d) < threshold * (ma if ma >= mb else mb) else d
            for a, b, ma, mb in zip(col, col[1:], mags, mags[1:])]


def _below(d, a, b, threshold, prec):
    """|d| < t·max(|a|, |b|) for ``_mpf_`` tuples, compared on mpmath.libmp's functions at ``prec`` bits.

    ``mpf_abs`` at a precision returns a canonical tuple, so the operands
    may be kernel tuples with trailing zeros.
    """
    abs_a, abs_b = mpf_abs(a, prec, round_nearest), mpf_abs(b, prec, round_nearest)
    bound = mpf_mul(threshold, abs_b if mpf_gt(abs_b, abs_a) else abs_a, prec, round_nearest)
    return mpf_lt(mpf_abs(d, prec, round_nearest), bound)


def mpf_differences(col, prec, threshold):
    """:func:`differences` of a bigfloat column of kernel ``_mpf_`` tuples.

    ``threshold`` is an ``_mpf_`` tuple too, and every operation rounds
    to nearest at ``prec`` bits.  Each difference has the value mpmath
    gives and an exact ``bc``, and is made canonical only at
    :func:`fill`'s edge.  A factor d = b - a breaks down when it is zero
    or when |d| < t·max(|a|, |b|), and the outcome is read from exponents
    wherever they settle it.  A nonzero mpf v has the magnitude mag(v) =
    exp + bc, canonical or not, so 2**(mag(v)-1) <= |v| < 2**mag(v), and
    with mag(M) = max(mag(a), mag(b)) the rounded product t·M lies in
    [2**(mag(t)+mag(M)-2), 2**(mag(t)+mag(M))] in any rounding mode.  So
    for gap = mag(d) - mag(t) - mag(M):

    * gap >= 1 proves |d| >= t·M: the factor is kept;
    * gap <= -2 proves |d| < t·M: the factor breaks down.

    Only gap -1 or 0, or a zero a or b, takes the full comparison
    (:func:`_below`).  A zero threshold runs the same guard: its mantissa
    is 0, so it has no magnitude, every nonzero factor takes the full
    comparison, and none is below 0·M, so only the zero test breaks a
    factor down.
    """
    # mag(v) of each element once, None for a zero or BREAKDOWN element; a zero
    # or infinite threshold (mantissa 0) has no magnitude, so every cell is compared
    _, tman, texp, tbc = threshold
    tmag = texp + tbc
    mags = ([None if v is None or not v[1] else v[2] + v[3] for v in col]
            if tman else [None] * len(col))
    return [None if a is None or b is None or not (d := _add(b, a, prec, 1))[1]
            or (gap <= -2 if ma is not None and mb is not None
                and not -2 < (gap := d[2] + d[3] - tmag - (ma if ma >= mb else mb)) < 1
                else _below(d, a, b, threshold, prec))
            else d
            for a, b, ma, mb in zip(col, col[1:], mags, mags[1:])]


def rhombus(carry, top, mid):
    """New float64 column by the rule ``c - 1/(p·d)``.

    Cell i takes c = carry[i+1], p = top[i] and d = mid[i]: ``mid`` is a
    column from :func:`differences`, and ``top`` is one too (lattice) or
    the constant -1.0 (epsilon, :func:`fill`).  The new column is as long
    as the shortest of ``carry[1:]``, ``top`` and ``mid``.  A cell whose
    factor product underflows to zero, or whose result is not finite,
    breaks down.
    """
    # a float64 product of nonzero factors can underflow to zero
    return [None if c is None or p is None or d is None or not (q := p * d)
            or not isfinite(r := c - 1 / q) else r
            for c, p, d in zip(carry[1:], top, mid)]


def mpf_rhombus(carry, top, mid, prec):
    """:func:`rhombus` of bigfloat kernel ``_mpf_`` tuple columns, rounded to nearest at ``prec`` bits.

    ``mid`` is a column from :func:`mpf_differences`, and ``top`` is one
    too or the constant -1, ``(1, 1, 0, 1)``, as for :func:`rhombus`.
    Each cell is one :func:`_lattice_cell` call, which rounds every step
    inline, and has the value mpmath gives and an exact ``bc``; it is
    made canonical only at :func:`fill`'s edge.  A product of nonzero
    factors is nonzero and mpmath exponents are unbounded, so no cell
    needs a further check.
    """
    return [None if c is None or p is None or d is None else _lattice_cell(c, p, d, prec)
            for c, p, d in zip(carry[1:], top, mid)]


def _pair_add(na, da, nb, db):
    """na/da + nb/db as a reduced pair, for reduced pairs with positive denominators.

    This is how Fraction adds (Knuth, TAOCP vol. 2, §4.5.1): the gcd of
    the denominators comes first, and the sum over their lcm takes one
    more gcd only when that gcd exceeds 1.  A zero sum is (0, 1).
    """
    g = gcd(da, db)
    if g == 1:
        return na * db + nb * da, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _pair_lattice_cell(c, p, d):
    """c - 1/(p·d) of reduced pairs, p and d nonzero, as a reduced pair.

    The product is cross-cancelled with two gcds, as Fraction multiplies,
    so its reciprocal is reduced once the sign is moved to the numerator.
    """
    pn, pq = p
    dn, dq = d
    g1, g2 = gcd(pn, dq), gcd(dn, pq)
    num, den = (pq // g2) * (dq // g1), (pn // g1) * (dn // g2)
    if den > 0:
        return _pair_add(c[0], c[1], -num, den)
    return _pair_add(c[0], c[1], num, -den)


def pair_differences(col):
    """:func:`differences` of an exact column of reduced ``(p, q)`` pairs, q > 0.

    Exact mode's threshold is always zero, so a factor breaks down only
    when it is zero.
    """
    return [None if a is None or b is None or not (d := _pair_add(b[0], b[1], -a[0], a[1]))[0]
            else d for a, b in zip(col, col[1:])]


def pair_rhombus(carry, top, mid):
    """:func:`rhombus` of exact columns of reduced ``(p, q)`` pairs, each cell reduced.

    ``mid`` is a column from :func:`pair_differences`, and ``top`` is one
    too or the constant -1, ``(-1, 1)``, as for :func:`rhombus`.  Each
    cell is the reduced pair of the Fraction the rule gives, but no object
    is built per operation.  A product of nonzero factors is nonzero, so
    no cell needs a further check.
    """
    return [None if c is None or p is None or d is None else _pair_lattice_cell(c, p, d)
            for c, p, d in zip(carry[1:], top, mid)]


def _canonical(v):
    """A kernel ``_mpf_`` tuple as mpmath builds it: its mantissa's trailing zeros stripped."""
    sign, man, exp, bc = v
    zeros = (man & -man).bit_length() - 1  # -1 for a zero mantissa
    return v if zeros <= 0 else (sign, man >> zeros, exp + zeros, bc - zeros)


def _mpf_column(col, make_mpf):
    """A column of kernel ``_mpf_`` tuples as canonical mpf values, each wrapped by ``make_mpf``
    (the mode's context's, so each carries its precision), ``None`` kept.

    The kernel keeps its mantissas' trailing zeros; each kept cell sheds
    them here, so an mpf outside the kernel holds the tuple mpmath builds.
    """
    return [None if v is None else make_mpf(_canonical(v)) for v in col]


def _fraction_column(col):
    """A column of reduced ``(p, q)`` pairs as Fractions, ``None`` kept."""
    return [None if v is None else Fraction(*v) for v in col]


def fill(seq, seeds, max_order, threshold, keep):
    """{m: (live prefix, nominal length)} for the columns m = 1 .. w (max_order + 1) with keep(m).

    The w = len(seeds) seed columns are columns 1 .. w, and each later
    column m is the rhombus of column m-w (:func:`rhombus`), so one unit
    of order takes w columns.  Three seeds run the lattice rule, whose
    top and mid factors are the differences of columns m-1 and m-2; two
    run Wynn's epsilon rule, whose top factor is the constant -1 and whose
    mid is the differences of column m-1.  Only the w live columns and
    the differences of all but the oldest are held; each column is
    differenced once.
    The mode picks the kernel: floats in float64, ``_mpf_`` tuples in
    bigfloat and reduced ``(p, q)`` pairs in exact mode, each with its
    own -1: ``-1.0``, ``(1, 1, 0, 1)`` and ``(-1, 1)``.  The seeds are
    converted to the kernel's numbers once, and only the kept columns
    are converted back, to Fractions or to ``mode.value_type`` by the
    mode's ``make_mpf``, so the loop builds no mpf or Fraction.
    A seed column's nominal length is len(seq), column m's (m > w) is
    len(seq) - (m - w) (0 when that is negative), and the cells past its
    live prefix, which ends in a VALID cell or is empty, are BREAKDOWN.
    ``threshold`` None means the mode's default; a NaN or negative one,
    or a nonzero one in exact mode (where only a zero factor breaks
    down), is a SpecError.  A zero threshold in a float mode runs the
    kernel's one guard like any other.
    """
    if max_order < 0:
        raise WindowError("max_order must be nonnegative")
    mode = seq.mode
    if threshold is None:
        threshold = mode.default_breakdown_threshold
    elif threshold != threshold:
        raise SpecError(f"breakdown threshold {value_text(threshold)} is not a number")
    elif threshold < 0:
        raise SpecError(f"breakdown threshold {value_text(threshold)} is negative")
    elif mode.is_exact and threshold != 0:
        raise SpecError(f"breakdown threshold {value_text(threshold)} has no effect in "
                        f"{mode.name} mode, where only a zero difference breaks down")
    threshold = mode.convert(threshold)
    width, size = len(seeds), len(seq)
    columns = {m: (c, size) for m, c in enumerate(seeds, 1) if keep(m)}
    if isinstance(mode, BigFloat):
        # the kernel runs on _mpf_ tuples: the seeds and the threshold are
        # unwrapped here once, and only the kept columns are wrapped again
        prec = mode.precision_bits
        diff = partial(mpf_differences, prec=prec, threshold=threshold._mpf_)
        step, minus_one = partial(mpf_rhombus, prec=prec), (1, 1, 0, 1)
        wrap = partial(_mpf_column, make_mpf=mode.mp.make_mpf)
        live = [[v._mpf_ for v in c] for c in seeds]
    elif mode.is_exact:
        # the kernel runs on reduced (p, q) pairs, unwrapped and wrapped alike
        diff, step, wrap, minus_one = pair_differences, pair_rhombus, _fraction_column, (-1, 1)
        live = [[v.as_integer_ratio() for v in c] for c in seeds]
    else:
        diff, step, wrap, minus_one = partial(differences, threshold=threshold), rhombus, None, -1.0
        live = list(seeds)
    # c + 1/d = c - 1/((-1)·d): epsilon's top factor is the constant -1
    pinned = [repeat(minus_one)] if width == 2 else []
    factors = [diff(c) for c in reversed(live[1:-1])]
    for m in range(width + 1, width * (max_order + 1) + 1):
        factors = [diff(live[-1])] + factors[:width - 2]
        new = step(live[0], *pinned, *factors)
        while new and new[-1] is None:
            new.pop()
        if keep(m):
            columns[m] = (new if wrap is None else wrap(new), max(size - m + width, 0))
        live = live[1:] + [new]
    return columns
