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
"""

from __future__ import annotations

from math import isfinite

from .modes import Float64


def differences(col, mode, threshold):
    """Forward differences of ``col``, ``None`` where a factor breaks down."""
    exact = mode.is_exact
    out = []
    for a, b in zip(col, col[1:]):
        d = None if a is None or b is None else b - a
        if d is not None and (d == 0 or not exact and abs(d) < threshold * max(abs(a), abs(b))):
            d = None
        out.append(d)
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
