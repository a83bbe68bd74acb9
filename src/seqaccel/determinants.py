"""Exact determinants on integer matrices.

Every determinant in the package is taken on integers: a caller scales
its rationals by their least common denominator D (``integers_over``)
and divides the result by the right power of D once.  The oracle does
this for its difference table in every mode, since a float or mpf is a
rational too, and ``kernel_coefficients`` for each row of its linear
system.  ``bareiss_det`` is fraction-free Bareiss elimination on those
integers; each of its divisions is exact (Bareiss 1968, by Sylvester's
identity).
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
