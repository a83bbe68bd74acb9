"""Reference computations that seqaccel's outputs are checked against.

They follow the recurrences exactly as the paper states them, over plain
lists, and share no code with the package under test.  A column is a
list over the labels n = start, start + 1, ...; ``None`` marks a
BREAKDOWN cell.
"""

from __future__ import annotations

from fractions import Fraction


def negligible(diff, a, b, threshold):
    """The float-mode breakdown guard: zero, or small relative to |a|, |b|."""
    return diff == 0 or abs(diff) < threshold * max(abs(a), abs(b))


def lattice_columns(values, start, k_max, convert, threshold):
    """Columns T_k = U_{3k+3} for k = 0..k_max of the three-level lattice.

    U_1 = 0, U_2 = n, U_3 = S_n and
    U_{m}^n = U_{m-3}^{n+1} - 1/((U_{m-1}^{n+1} - U_{m-1}^n)(U_{m-2}^{n+1} - U_{m-2}^n)).
    Only the three live levels are kept while filling.
    """
    below = [convert(0)] * len(values)
    mid = [convert(start + i) for i in range(len(values))]
    top = list(values)
    cols = [top]
    for m in range(4, 3 * k_max + 4):
        row = []
        for i in range(len(top) - 1):
            c, m0, m1, t0, t1 = below[i + 1], mid[i], mid[i + 1], top[i], top[i + 1]
            if c is None or m0 is None or m1 is None or t0 is None or t1 is None:
                row.append(None)
                continue
            d_top, d_mid = t1 - t0, m1 - m0
            if negligible(d_top, t0, t1, threshold) or negligible(d_mid, m0, m1, threshold):
                row.append(None)
            else:
                row.append(c - 1 / (d_top * d_mid))
        below, mid, top = mid, top, row
        if m % 3 == 0:
            cols.append(row)
    return cols


def epsilon_columns(values, k_max, convert, threshold):
    """Even columns eps_{2k}, k = 0..k_max, of Wynn's epsilon algorithm."""
    prev = [convert(0)] * (len(values) + 1)
    cur = list(values)
    cols = [cur]
    for j in range(1, 2 * k_max + 1):
        row = []
        for i in range(len(cur) - 1):
            c, a, b = prev[i + 1], cur[i], cur[i + 1]
            if c is None or a is None or b is None:
                row.append(None)
                continue
            diff = b - a
            row.append(None if negligible(diff, a, b, threshold) else c + 1 / diff)
        prev, cur = cur, row
        if j % 2 == 0:
            cols.append(row)
    return cols


def fixed(value, digits):
    """Correctly rounded (half to even) fixed-point text, without a -0."""
    text = f"{value:.{digits}f}"
    if text.startswith("-") and not text.strip("-0."):
        return text[1:]
    return text


def markdown_cells(text):
    """(k, n) -> cell text of a markdown table printed by ``seqaccel transform``."""
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in text.splitlines()
        if line.startswith("|")
    ]
    cells = {}
    for row in rows[2:]:
        for k, cell in enumerate(row[1:]):
            cells[(k, int(row[0]))] = cell
    return cells


def within_last_digit(printed, reference):
    """True when ``printed`` is within one unit of the last digit of ``reference``."""
    try:
        value = Fraction(printed)
    except (ValueError, ZeroDivisionError):
        return False
    digits = len(reference.split(".")[1])
    return abs(value - Fraction(reference)) <= Fraction(1, 10**digits)
