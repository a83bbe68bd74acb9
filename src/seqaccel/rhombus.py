"""The rhombus rule shared by the lattice and epsilon engines.

Both engines build each new column from the columns at labels n and n+1:

    new[i] = carry[i+1] - 1 / (dtop[i] * dmid[i])    (lattice)
    new[i] = carry[i+1] + 1 / dcur[i]                (epsilon)

where d[i] = f[i+1] - f[i] is a difference factor.  Columns are plain
lists indexed from the first label, and ``None`` marks a BREAKDOWN
cell.  A factor breaks down when it is zero (exact mode) or negligibly
small against its operands (float modes), and every cell that depends
on a BREAKDOWN cell breaks down too.  In float64 a cell also breaks
down when its factor product underflows to zero or its result is not
finite; mpmath exponents are unbounded, so bigfloat needs no such check.

:func:`fill` is the one driver both engines call: it runs the rule
from a tuple of seed columns and keeps only the live columns while it
does.  It drops each new column's trailing BREAKDOWN cells, so the
kernel walks only the live prefix: on a sequence the lattice does not
accelerate, that is a small part of the table.
"""

from __future__ import annotations

from math import isfinite

from .errors import SpecError, WindowError
from .modes import Float64, value_text


def differences(col, mode, threshold):
    """Forward differences of ``col``, ``None`` where a factor breaks down."""
    out = []
    if mode.is_exact:
        for a, b in zip(col, col[1:]):
            d = None if a is None or b is None else b - a
            out.append(d or None)
        return out
    # each element is an operand of two differences: take its magnitude once
    mags = [None if v is None else abs(v) for v in col]
    for a, b, ma, mb in zip(col, col[1:], mags, mags[1:]):
        if a is None or b is None:
            out.append(None)
            continue
        d = b - a
        out.append(None if not d or abs(d) < threshold * (ma if ma >= mb else mb) else d)
    return out


def rhombus(carry, factors, subtract, mode):
    """New column ``carry[i+1] -/+ 1 / prod(f[i] for f in factors)``.

    ``factors`` are columns from :func:`differences`.  The new column is
    as long as the shortest of ``carry[1:]`` and the factors.
    """
    prod = factors[0]
    for f in factors[1:]:
        prod = [None if p is None or d is None else p * d for p, d in zip(prod, f)]
    float64 = isinstance(mode, Float64)
    out = []
    for c, p in zip(carry[1:], prod):
        if c is None or p is None or float64 and p == 0:
            out.append(None)
            continue
        r = c - 1 / p if subtract else c + 1 / p
        out.append(None if float64 and not isfinite(r) else r)
    return out


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
    # once, not at every guard product: mpmath converts a float operand each time
    threshold = mode.convert(threshold)
    width, size = len(seeds), len(seq)
    columns = {m: (c, size) for m, c in enumerate(seeds, 1) if keep(m)}
    live = list(seeds)
    with mode.context():
        factors = [differences(c, mode, threshold) for c in reversed(seeds[1:-1])]
        for m in range(width + 1, width * (max_order + 1) + 1):
            factors = [differences(live[-1], mode, threshold)] + factors[:width - 2]
            new = rhombus(live[0], factors, subtract, mode)
            while new and new[-1] is None:
                new.pop()
            if keep(m):
                columns[m] = (new, max(size - m + width, 0))
            live = live[1:] + [new]
    return columns
