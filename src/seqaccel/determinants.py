"""Exact determinants on integer matrices.

Every determinant in the package is taken on integers: a caller scales
its rationals by their least common denominator D (``integers_over``)
and divides the result by the right power of D once.  The oracle does
this for its difference table in every mode, since a float or mpf is a
rational too, and ``kernel_coefficients`` for each row of its linear
system.  ``bareiss_det`` is fraction-free Bareiss elimination on those
integers; each of its divisions is exact.  ``leading_minors`` runs the
same elimination without row swaps, whose pivots are the leading
principal minors (Bareiss 1968, by Sylvester's identity), so one pass
gives the determinants of every leading block up to the first zero one;
each block past it is its own ``bareiss_det``.
"""

from __future__ import annotations

import math


def integers_over(ratios):
    """(ints, D) for the (numerator, denominator) pairs ``ratios``: ints[i] / D is ratios[i].

    D is the least common denominator.
    """
    scale = math.lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios], scale


def bareiss_det(rows):
    """Exact determinant of an integer matrix by Bareiss elimination with row swaps.

    Each step replaces the trailing block by its 2x2 minors against the
    pivot, divided by the previous pivot; the division is exact, so
    every entry stays an integer.
    """
    a = list(rows)
    if not a:
        return 1
    sign = 1
    prev = 1
    while len(a) > 1:
        i = next((i for i, row in enumerate(a) if row[0]), None)
        if i is None:
            return 0
        if i:
            a[0], a[i] = a[i], a[0]
            sign = -sign
        (p, *tail), *rest = a
        a = [[(x * p - f * y) // prev for x, y in zip(row, tail)] for f, *row in rest]
        prev = p
    return sign * a[0][0]


def leading_minors(rows):
    """Leading principal minors of an integer matrix: entry j is the det of the leading (j+1)x(j+1) block.

    Bareiss elimination without row swaps: each pivot is the next
    leading minor.  The elimination cannot go past a zero pivot without
    a swap, which would change the blocks after it, so from the first
    zero minor on each leading block is its own ``bareiss_det``.
    """
    minors = []
    a = rows
    prev = 1
    while a:
        (p, *tail), *rest = a
        minors.append(p)
        if not p:
            break
        a = [[(x * p - f * y) // prev for x, y in zip(row, tail)] for f, *row in rest]
        prev = p
    return minors + [bareiss_det([row[:j] for row in rows[:j]]) for j in range(len(minors) + 1, len(rows) + 1)]
