"""Determinant route to the transformation, and identity checks.

The routes here are deliberately independent of the lattice recursion:
the transform values come from explicit determinant ratios, the
molecule quantities F_k^n and G_k^n from closed formulas built on the
Hankel-like determinants ``psi_det`` and ``phi_det``, and the bilinear
identities are verified as residuals.

The oracle is exact in every mode.  Each value of S is read exactly (a
float or mpf is a dyadic rational) and S is scaled by the least common
denominator D of its values, so each table of forward differences it
builds holds integers.  A table is only as deep as the determinants it
serves read (``_difference_table``).  Every determinant row is a slice
of a table, and every determinant is an integer over a known power of
D (the number of difference rows).  The work stays in integers until a
public value is formed, and each public value is one Fraction: a T
ratio is num / (den * D), G/F and each nonzero bilinear residual are
one integer over a power of D, and a zero residual is the shared
Fraction(0).

The routes have one label-column builder, ``_orders``.  Given the
highest order wanted of each kind of determinant, (shift, head), it
builds the one difference table those orders read, and takes every
order at a label from the leading principal minors of one matrix
(``determinants.leading_minors``, which also owns what happens past a
zero minor).  ``_t_columns`` asks it for the numerator and denominator
of T; ``oracle_transform`` and ``verify_routes`` both read T from it.
The molecule (and with it ``check_bilinear``) asks it for Psi_1,
Psi_2, ... of each D^shift S it reads, and Phi_1, Phi_2, ... of D S, as
deep as the highest order the requested levels read.  Every
determinant of order 1 or more checks that its columns lie in the
sequence, also one that reads no difference row.

Like the engines' tables, the routes are label columns: one list per
order or level, from the start label on, as far as the window fits.  A
window only shrinks as the label grows, so every column is a prefix of
the labels, and its next label n + 1 is the column read from its second
cell.  ``check_bilinear`` and ``verify_routes`` zip the columns they
compare; only ``molecule_solution``'s public F and G are keyed by
(level, label).

Each public result is rounded to the sequence's mode once, at the end,
so a float64 T_k^(n) is the correctly rounded transform of its inputs.
Exact mode returns the Fractions themselves.  ``verify_routes`` checks
the lattice against both routes, each on the leading minors; agreement
is an end-to-end correctness check of all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .determinants import bareiss_det, integers_over, leading_minors
from .errors import (
    KernelDegeneracyError,
    ModeUnsupportedError,
    NonFiniteError,
    SingularError,
    SpecError,
    WindowError,
)
from .formatting import integer_ratio
from .lbq import lbq_transform
from .modes import RATIONAL
from .sequences import Sequence
from .tables import TransformTable


class _Differences(NamedTuple):
    rows: list  # rows[j] = D^j (scale * S), lists of ints
    scale: int  # least common denominator of S


def _difference_table(seq, tops):
    """D^0, D^1, ... of scale * S, as deep as the determinants of ``tops`` read.

    ``tops`` maps (shift, head) to the highest order read of that kind
    (see ``_block``); the table stops at the highest difference order
    any of them reads (``_last_order``), or at the last nonempty one.
    Every value is read exactly and scaled to an integer, so every row
    is a list of ints.
    """
    values, scale = integers_over(list(map(integer_ratio, seq.values)))
    rows = [values]
    depth = max((_last_order(k, shift, head) for (shift, head), k in tops.items()), default=0)
    for _ in range(min(depth, len(values) - 1)):
        prev = rows[-1]
        rows.append([b - a for a, b in zip(prev, prev[1:])])
    return _Differences(rows, scale)


def _rounded(mode, x):
    """The exact value x rounded once to ``mode``; exact mode keeps it as it is.

    A float64 value beyond the float range raises NonFiniteError.
    """
    return x if mode.is_exact else mode.convert(x)


def _last_order(k, shift, head):
    """The highest difference order an order-k determinant reads, or 0 (S itself) when it reads none.

    Below its ``head`` row, if any, its rows are D^shift S, D^(shift+2) S, ....
    """
    scaled = k - (head is not None)
    return shift + 2 * scaled - 2 if scaled > 0 else 0


def _fits(seq, diffs, k, n, shift, head):
    """Whether an order-k >= 1 determinant over the columns n..n+k-1 fits the sequence.

    The columns must lie in the highest order read, whose row is the
    shortest.
    """
    lo = n - seq.start_label
    last = _last_order(k, shift, head)
    return lo >= 0 and last < len(diffs.rows) and lo + k <= len(diffs.rows[last])


def _block(seq, diffs, k, n, shift, head):
    """The k x k matrix of an order-k >= 1 determinant whose window fits.

    Its rows are the ``head`` row, if any (``"labels"``: the labels
    n..n+k-1, or ``"ones"``), then D^shift S, D^(shift+2) S, ... over the
    columns n..n+k-1, read from ``diffs``, since D^(2i) (D^shift S) =
    D^(2i+shift) S.
    """
    lo = n - seq.start_label
    rows = [] if head is None else [list(range(n, n + k)) if head == "labels" else [1] * k]
    return rows + [diffs.rows[order][lo:lo + k] for order in range(shift, shift + 2 * (k - len(rows)) - 1, 2)]


def _hankel_det(seq, diffs, k, n, shift=0, head=None):
    """k x k determinant of ``_block`` at label n, as (integer, power).

    The rows are ints; the determinant is the integer over scale**power,
    the power being the number of difference rows.  Conventions: k = -1
    gives 0, k = 0 gives 1.  A window outside the sequence raises
    WindowError.
    """
    if k <= 0:
        if k < -1:
            raise WindowError(f"determinant order {k} is below -1")
        return k + 1, 0
    if not _fits(seq, diffs, k, n, shift, head):
        raise WindowError(f"labels {n}..{n + k - 1} of the order-{k} determinant over D^{shift} S "
                          f"lie outside the sequence")
    return bareiss_det(_block(seq, diffs, k, n, shift, head)), k - (head is not None)


def _single(seq, k, n, shift=0, head=None):
    """``_hankel_det`` of ``seq`` alone, over a difference table as deep as it reads, as (diffs, det)."""
    diffs = _difference_table(seq, {(shift, head): k})
    return diffs, _hankel_det(seq, diffs, k, n, shift, head)


def _exact(diffs, det):
    """The Fraction of an (integer, power) determinant."""
    value, power = det
    return Fraction(value, diffs.scale ** power)


def _quotient(diffs, num, den):
    """num / den as one Fraction, for (integer, power) values with den nonzero."""
    (a, p), (b, q) = num, den
    if q >= p:
        return Fraction(a * diffs.scale ** (q - p), b)
    return Fraction(a, b * diffs.scale ** (p - q))


def psi_det(v, k, n):
    """k x k determinant with rows v, D^2 v, D^4 v, ... over columns n..n+k-1.

    Conventions: k = -1 gives 0, k = 0 gives 1.
    """
    return _rounded(v.mode, _exact(*_single(v, k, n)))


def phi_det(v, k, n):
    """Like psi_det but the first row holds the column labels n..n+k-1."""
    return _rounded(v.mode, _exact(*_single(v, k, n, head="labels")))


def t_denominator(seq, k, n):
    """(k+1) x (k+1) determinant with a row of ones over D^2 S, ..., D^(2k) S."""
    if k < 0:
        raise WindowError("transform order k must be nonnegative")
    return _rounded(seq.mode, _exact(*_single(seq, k + 1, n, 2, "ones")))


def t_determinant(seq, k, n):
    """Transform value T_k^(n) as the ratio of the two (k+1)x(k+1) determinants."""
    if k < 0:
        raise WindowError("transform order k must be nonnegative")
    diffs, den = _single(seq, k + 1, n, 2, "ones")
    if den[0] == 0:
        raise SingularError(f"zero denominator determinant at (k={k}, n={n})")
    return _rounded(seq.mode, _quotient(diffs, _hankel_det(seq, diffs, k + 1, n), den))


def _t_columns(seq, k_max):
    """The exact label columns T_0, ..., T_k_max; None is a zero denominator.

    The numerator of T_k^(n) is the order-(k+1) Psi of S, and its
    denominator the order-(k+1) determinant with a row of ones over
    D^2 S, ..., D^(2k) S; ``_orders`` gives the label columns of both.
    Both windows fit while n + 3k is a label, so column k of each is
    as long, and the two are zipped.
    """
    diffs, orders = _orders(seq, {(0, None): k_max + 1, (2, "ones"): k_max + 1})
    return [[_quotient(diffs, num, den) if den[0] else None for num, den in zip(nums, dens)]
            for nums, dens in zip(orders[0, None][2:], orders[2, "ones"][2:])]


def _cell(mode, x):
    """x rounded to the mode, or None (BREAKDOWN) for no x or one beyond the mode's range."""
    if x is None:
        return None
    try:
        return _rounded(mode, x)
    except NonFiniteError:
        return None


def oracle_transform(seq, k_max):
    """TransformTable of T_k^(n) from the determinant ratio; a failed cell is BREAKDOWN.

    A float64 value beyond the float range is a failed cell too.
    """
    if k_max < 0:
        raise WindowError("max_order must be nonnegative")
    columns = [[_cell(seq.mode, x) for x in column]
               for column in _t_columns(seq, k_max)]
    return TransformTable.from_columns({k: (c, len(c)) for k, c in enumerate(columns)}, seq)


@dataclass
class MoleculeSolution:
    """Closed-formula F_k^n and G_k^n keyed by (level, label)."""

    F: dict = field(default_factory=dict)
    G: dict = field(default_factory=dict)

    def ratio(self, level, n):
        f = self.F.get((level, n))
        g = self.G.get((level, n))
        if f is None or g is None:
            return None
        if f == 0:
            raise SingularError(f"F_{level}^{n} = 0")
        return g / f


# F and G at level 3k + r, for r = 0, 1, 2: each is the order-(k + offset)
# Psi (or, with a head row, Phi) of D^shift S, read as (shift, head, offset);
# G at r = 1 is negated
_MOLECULE = (
    ((3, None, -1), (0, None, 0)),
    ((1, None, 0), (4, None, -1)),
    ((2, None, 0), (1, "labels", 1)),
)


def _minors(seq, diffs, n, shift, head, top):
    """The determinants of ``_block`` at label n of every order, each as (integer, power).

    Entry i is the order-(i - 1) determinant, from order -1 on.  The
    orders run up to ``top``, or to the highest order below it whose
    window fits.  Orders 1 and up are the leading minors of that one
    block.
    """
    while top > 0 and not _fits(seq, diffs, top, n, shift, head):
        top -= 1
    minors = leading_minors(_block(seq, diffs, top, n, shift, head)) if top > 0 else []
    return [(0, 0), (1, 0)] + [(d, j - (head is not None)) for j, d in enumerate(minors, 1)]


def _orders(seq, tops):
    """The difference table that ``tops`` reads, and the label column of every order it names.

    ``tops`` maps (shift, head) to the highest order wanted of that
    kind.  Returns (diffs, orders), where orders[shift, head][i] is the
    label column of the order-(i - 1) determinant: its values from the
    start label on, as far as its window fits, each as (integer, power).
    A window only shrinks as the label grows, so each column is a prefix
    of the labels.  At each label every order of one (shift, head) comes
    from one ``_minors`` block, as deep as the highest order that fits.
    """
    diffs = _difference_table(seq, tops)
    orders = {}
    for (shift, head), top in tops.items():
        columns = orders[shift, head] = [[] for _ in range(top + 2)]
        for n in seq.labels():
            minors = _minors(seq, diffs, n, shift, head, top)
            for column, minor in zip(columns, minors):
                column.append(minor)
            top = len(minors) - 2  # the window at n + 1 is no larger
    return diffs, orders


def _molecule(seq, levels):
    """The difference table and the label columns of F and G at the ``levels``, as (diffs, F, G).

    F and G are dicts {level: column}.  A column holds the level's values
    from the start label on, as far as both the F and the G window fit,
    each as (integer, power); each level's cells are a prefix of the
    labels.  The Psi and Phi that the levels read come from ``_orders``,
    each (shift, head) as deep as the highest order the levels read.
    Level 2 is the seed level: G_2/F_2 = Phi_1(D S)/Psi_0(D^2 S) = n is
    the lattice's seed U_2^n = n, defined at every label of S, so Phi_1,
    which reads only its label row, is read at the last label too, where
    D S has no cell.
    """
    tops = {}
    for level in levels:
        k, r = divmod(level, 3)
        for shift, head, offset in _MOLECULE[r]:
            tops[shift, head] = max(tops.get((shift, head), -1), k + offset)
    diffs, orders = _orders(seq, tops)
    for (shift, _), columns in orders.items():
        if shift >= len(seq):
            # a Psi or Phi of D^shift S needs D^shift S to exist, even Phi_1,
            # which reads only its label row
            for column in columns[2:]:
                column.clear()
    F, G = {}, {}
    for level in levels:
        k, r = divmod(level, 3)
        f, g = (orders[shift, head][k + offset + 1] for shift, head, offset in _MOLECULE[r])
        size = min(len(f), len(g))
        F[level], G[level] = f[:size], [(-x, p) for x, p in g[:size]] if r == 1 else g[:size]
    return diffs, F, G


def molecule_solution(seq, max_level):
    """Populate F and G for levels 0..max_level wherever the window fits.

    Each value is rounded once to the mode; a float64 cell whose F or G
    lies beyond the float range is left out, like one whose window does
    not fit.  Level 2 is the seed level: G_2/F_2 = n = U_2^n at every
    label of S, the last one included.
    """
    mol = MoleculeSolution()
    diffs, F, G = _molecule(seq, range(max_level + 1))
    for level, fs in F.items():
        for n, f, g in zip(seq.labels(), fs, G[level]):
            f, g = _cell(seq.mode, _exact(diffs, f)), _cell(seq.mode, _exact(diffs, g))
            if f is not None and g is not None:
                mol.F[level, n], mol.G[level, n] = f, g
    return mol


def verify_routes(seq, k_max):
    """Check T_k^(n), 1 <= k <= k_max, on every VALID lattice cell.

    The lattice value must equal the exact determinant ratio and the
    exact molecule ratio G/F at level 3k+3.  Both are label columns
    from ``_orders``, each over a table as deep as its own orders read,
    and each taken per label from the leading minors of one
    elimination.  For each k, the lattice column's
    prefix, the T column and the molecule column at level 3k+3 are
    walked together by label; all three windows fit while n + 3k is a
    label.  A zero denominator or F = 0 counts as a mismatch.  Returns
    the number of cells compared and the (k, n) of each mismatch.
    """
    lattice = lbq_transform(seq, k_max)
    T = _t_columns(seq, k_max)
    diffs, F, G = _molecule(seq, range(6, 3 * k_max + 4, 3))
    cells, mismatches = 0, []
    for k in range(1, k_max + 1):
        for n, value, t, f, g in zip(seq.labels(), lattice.columns[k][0], T[k], F[3 * k + 3], G[3 * k + 3]):
            if value is None:
                continue
            cells += 1
            if not (f[0] != 0 and value == t == _quotient(diffs, g, f)):
                mismatches.append((k, n))
    return cells, mismatches


@dataclass
class BilinearReport:
    residuals: dict
    checked: int
    zero_f_cells: list

    @property
    def all_zero(self):
        return all(r == 0 for eq in self.residuals.values() for r in eq.values())


_BILINEAR_FORMS = {
    # each maps the F and G label columns and a level k to the operand
    # column pairs of the products a, b, c of the identity a - b = c at
    # (k, n); a column read from its second cell, [1:], is the column at n + 1
    "fg_fg_ff": lambda F, G, k: (
        (F[k], G[k][1:]), (F[k][1:], G[k]), (F[k + 1], F[k - 1][1:])),
    "fg_cross": lambda F, G, k: (
        (F[k + 2], G[k - 1][1:]), (F[k - 1][1:], G[k + 2]), (F[k + 1][1:], F[k])),
    "ff_ff_ff": lambda F, G, k: (
        (F[k], F[k + 2][1:]), (F[k][1:], F[k + 2]), (F[k + 3], F[k - 1][1:])),
}

_ZERO = Fraction(0)


def _residual(scale, pairs):
    """(a - b) - c for the products a, b, c of the three operand ``pairs``.

    Each operand is an (integer, power) over ``scale``; the three integer
    products are aligned to the largest power, so the residual is one
    integer over scale**power.  A zero residual is the shared Fraction(0).
    """
    (a, pa), (b, pb), (c, pc) = [(x * y, p + q) for (x, p), (y, q) in pairs]
    top = max(pa, pb, pc)
    num = a * scale ** (top - pa) - b * scale ** (top - pb) - c * scale ** (top - pc)
    return Fraction(num, scale ** top) if num else _ZERO


def check_bilinear(seq, k_max):
    """Residuals of the three bilinear identities over all computable cells.

    Exact mode only: the identities hold exactly, and a residual of
    rounded F and G would measure the rounding.  The residuals are
    taken on the integer molecule's label columns, F and G each an
    integer over a power of the scale, so only a nonzero residual
    becomes a Fraction.  At each level k an identity's operands are the
    F and G columns of nearby levels, read at n or at n + 1; its cells
    are a zip over those columns, as far as every operand has a cell.
    """
    if not seq.mode.is_exact:
        raise ModeUnsupportedError(f"check_bilinear needs exact arithmetic, not {seq.mode.name}")
    diffs, F, G = _molecule(seq, range(k_max + 4))
    residuals = {name: {} for name in _BILINEAR_FORMS}
    for name, form in _BILINEAR_FORMS.items():
        for k in range(1, k_max + 1):
            cells = zip(seq.labels(), *(zip(x, y) for x, y in form(F, G, k)))
            residuals[name].update(((k, n), _residual(diffs.scale, pairs)) for n, *pairs in cells)
    checked = sum(map(len, residuals.values()))
    # F_0 = 0 is structural; only positive levels signal degeneracy
    zero_f = [(level, n) for level, fs in F.items() if level > 0
              for n, (f, _) in zip(seq.labels(), fs) if f == 0]
    return BilinearReport(residuals, checked, zero_f)


def kernel_coefficients(ratios):
    """Solve for the a_i certifying S_n = S + sum_i a_i D^{2i} S_n.

    The remainder sum_j c_j r_j^n lies in the order-k kernel iff
    p(r_j) = 1 for all j, where p(x) = sum_i a_i (x - 1)^{2i}.  Each
    row of that system is scaled to integers, and the a_i are Cramer
    ratios of Bareiss determinants.
    """
    # row j is [(r_j - 1)^0, (r_j - 1)^2, ..., (r_j - 1)^{2k}] times its
    # common denominator; column 0, the power 0, is the right-hand side 1
    k = len(ratios)
    rows = [integers_over([((Fraction(r) - 1) ** (2 * i)).as_integer_ratio() for i in range(k + 1)])[0]
            for r in ratios]
    det = bareiss_det([row[1:] for row in rows])
    if det == 0:
        raise KernelDegeneracyError("coefficient system is singular")
    return [Fraction(bareiss_det([row[1:i] + row[:1] + row[i + 1:] for row in rows]), det)
            for i in range(1, k + 1)]


def kernel_construct(limit, ratios, weights, start_label, count):
    """Sequence S_n = S + sum_j c_j r_j^n, certified to lie in the order-k kernel."""
    if len(ratios) != len(weights) or len(ratios) == 0:
        raise SpecError("ratios and weights must have equal positive length")
    if len(set(ratios)) != len(ratios):
        raise SpecError("ratios must be distinct")
    if any(w == 0 for w in weights):
        raise SpecError("weights must be nonzero")
    kernel_coefficients(ratios)  # raises KernelDegeneracyError if uncertifiable
    values = []
    for n in range(start_label, start_label + count):
        s = Fraction(limit)
        for r, c in zip(ratios, weights):
            s += Fraction(c) * Fraction(r) ** n
        values.append(s)
    return Sequence.from_iterable(values, start_label, RATIONAL)
