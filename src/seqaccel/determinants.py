"""Determinant evaluation and exact linear solves.

Exact determinants are taken on integer matrices: the oracle scales its
difference table by the common denominator D of the sequence, so every
row it hands over is integral, and divides the result by D**r once (r
is the number of scaled rows).  ``bareiss_det`` is fraction-free
Bareiss elimination on those integers; each of its divisions is exact.
Floating matrices use Gaussian elimination with partial pivoting, which
also yields a cheap pivot-ratio condition indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import KernelDegeneracyError


@dataclass(frozen=True)
class DetResult:
    value: object
    condition: float = 1.0


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


def pivoted_det(rows):
    """Partially pivoted elimination; returns value plus pivot-ratio condition."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return DetResult(1.0)
    sign = 1
    pivots = []
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0:
            return DetResult(0 * a[0][0], float("inf"))
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        pivots.append(abs(a[c][c]))
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] = a[r][j] - f * a[c][j]
    det = a[0][0]
    for c in range(1, n):
        det = det * a[c][c]
    cond = float(max(pivots) / min(pivots))
    return DetResult(sign * det, cond)


def solve_exact(matrix, rhs):
    """Solve a square exact linear system; raises on singularity."""
    n = len(matrix)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(matrix, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            raise KernelDegeneracyError("coefficient system is singular")
        a[c], a[p] = a[p], a[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                for j in range(c, n + 1):
                    a[r][j] -= f * a[c][j]
    return [a[r][n] / a[r][r] for r in range(n)]
