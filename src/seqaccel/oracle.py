"""Determinant route to the transformation, and identity checks.

The routes here are deliberately independent of the lattice recursion:
the transform values come from explicit determinant ratios, the
molecule quantities F_k^n and G_k^n from closed formulas built on the
Hankel-like determinants ``psi_det`` and ``phi_det``, and the bilinear
identities are verified as residuals.

The oracle is exact in every mode.  Each value of S is read exactly (a
float or mpf is a dyadic rational) and S is scaled by the least common
denominator of its values, so the one table of forward differences that
a call builds holds integers.  Every determinant row is a slice of that
table, and every determinant is one integer Bareiss elimination divided
by scale**r (r the number of difference rows): one Fraction per
determinant.  Each public result is rounded to the sequence's mode
once, at the end, and the T ratio is formed before it is rounded, so a
float64 T_k^(n) is the correctly rounded transform of its inputs.
Exact mode returns the Fractions themselves.
``verify_routes`` checks the lattice against both routes; agreement is
an end-to-end correctness check of all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .determinants import bareiss_det, integers_over
from .errors import (
    KernelDegeneracyError,
    ModeUnsupportedError,
    NonFiniteError,
    SeqAccelError,
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


def _difference_table(seq, order):
    """D^0, D^1, ..., D^order of scale * S, stopping at the last nonempty one.

    Every value is read exactly and scaled to an integer, so every row
    is a list of ints.
    """
    values, scale = integers_over(list(map(integer_ratio, seq.values)))
    rows = [values]
    for _ in range(min(order, len(values) - 1)):
        prev = rows[-1]
        rows.append([b - a for a, b in zip(prev, prev[1:])])
    return _Differences(rows, scale)


def _rounded(mode, x):
    """The exact value x rounded once to ``mode``; exact mode keeps it as it is.

    A float64 value beyond the float range raises NonFiniteError.
    """
    return x if mode.is_exact else mode.convert(x)


def _hankel_det(seq, diffs, k, n, shift=0, head=None):
    """k x k determinant over the columns n..n+k-1 of D^shift S.

    The rows are the ``head`` row if one is given (``"labels"``: the
    labels n..n+k-1, or ``"ones"``), then D^shift S, D^(shift+2) S, ...
    read from ``diffs``, since D^(2i) (D^shift S) = D^(2i+shift) S.  The
    rows are ints, and the integer determinant is divided by scale**r
    for the r scaled rows, giving an exact Fraction.  Conventions:
    k = -1 gives 0, k = 0 gives 1.
    """
    if k <= 0:
        if k < -1:
            raise WindowError(f"determinant order {k} is below -1")
        return Fraction(k + 1)
    rows = []
    if head is not None:
        rows.append(list(range(n, n + k)) if head == "labels" else [1] * k)
    lo = n - seq.start_label
    scaled = k - len(rows)  # the difference rows, each scaled by diffs.scale
    for order in range(shift, shift + 2 * scaled, 2):
        if lo < 0 or order >= len(diffs.rows) or lo + k > len(diffs.rows[order]):
            raise WindowError(f"labels {n}..{n + k - 1} of the order-{order} "
                              f"differences lie outside the sequence")
        rows.append(diffs.rows[order][lo:lo + k])
    return Fraction(bareiss_det(rows), diffs.scale ** scaled)


def psi_det(v, k, n):
    """k x k determinant with rows v, D^2 v, D^4 v, ... over columns n..n+k-1.

    Conventions: k = -1 gives 0, k = 0 gives 1.
    """
    return _rounded(v.mode, _hankel_det(v, _difference_table(v, 2 * k - 2), k, n))


def phi_det(v, k, n):
    """Like psi_det but the first row holds the column labels n..n+k-1."""
    return _rounded(v.mode, _hankel_det(v, _difference_table(v, 2 * k - 4), k, n, head="labels"))


def _t_denominator(seq, diffs, k, n):
    if k < 0:
        raise WindowError("transform order k must be nonnegative")
    return _hankel_det(seq, diffs, k + 1, n, 2, "ones")


def t_denominator(seq, k, n):
    """(k+1) x (k+1) determinant with a row of ones over D^2 S, ..., D^(2k) S."""
    return _rounded(seq.mode, _t_denominator(seq, _difference_table(seq, 2 * k), k, n))


def _t_value(seq, diffs, k, n):
    den = _t_denominator(seq, diffs, k, n)
    if den == 0:
        raise SingularError(f"zero denominator determinant at (k={k}, n={n})")
    return _hankel_det(seq, diffs, k + 1, n) / den


def t_determinant(seq, k, n):
    """Transform value T_k^(n) as the ratio of the two (k+1)x(k+1) determinants."""
    return _rounded(seq.mode, _t_value(seq, _difference_table(seq, 2 * k), k, n))


def _t_cell(seq, diffs, k, n):
    """_t_value rounded to the mode, or None (BREAKDOWN) where either raises."""
    try:
        return _rounded(seq.mode, _t_value(seq, diffs, k, n))
    except SeqAccelError:
        return None


def oracle_transform(seq, k_max):
    """TransformTable of T_k^(n) from the determinant ratio; a failed cell is BREAKDOWN.

    A float64 value beyond the float range is a failed cell too.
    """
    diffs = _difference_table(seq, 2 * k_max)
    columns = {}
    for k in range(k_max + 1):
        column = [_t_cell(seq, diffs, k, n)
                  for n in range(seq.start_label, seq.end_label - 3 * k + 1)]
        columns[k] = (column, len(column))
    return TransformTable.from_columns(columns, seq)


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


def _molecule_cell(seq, diffs, level, n):
    """(F, G) at one lattice level via the six closed formulas."""

    def det(shift, k, head=None):
        # a Psi or Phi of D^shift S needs D^shift S to exist, even when
        # Phi_1 reads only its label row
        if k > 0 and shift >= len(diffs.rows):
            raise WindowError(f"difference order {shift} exceeds available length {len(seq)}")
        return _hankel_det(seq, diffs, k, n, shift, head)

    k, r = divmod(level, 3)
    if r == 0:
        return det(3, k - 1), det(0, k)
    if r == 1:
        return det(1, k), -det(4, k - 1)
    return det(2, k), det(1, k + 1, "labels")


def molecule_solution(seq, max_level):
    """Populate F and G for levels 0..max_level wherever the window fits.

    Each value is rounded once to the mode; a float64 cell whose F or G
    lies beyond the float range is left out, like one whose window does
    not fit.
    """
    mol = MoleculeSolution()
    diffs = _difference_table(seq, len(seq) - 1)
    for level in range(0, max_level + 1):
        for n in seq.labels():
            try:
                f, g = _molecule_cell(seq, diffs, level, n)
                f, g = _rounded(seq.mode, f), _rounded(seq.mode, g)
            except (WindowError, NonFiniteError):
                continue
            mol.F[(level, n)] = f
            mol.G[(level, n)] = g
    return mol


def verify_routes(seq, k_max):
    """Check T_k^(n), 1 <= k <= k_max, on every VALID lattice cell.

    The lattice value must equal the exact determinant ratio and the
    exact molecule ratio G/F at level 3k+3, both read from one
    difference table.  A route that raises, or has F = 0, counts as a
    mismatch.  Returns the number of cells compared and the (k, n) of
    each mismatch.
    """
    lattice = lbq_transform(seq, k_max)
    diffs = _difference_table(seq, len(seq) - 1)
    cells, mismatches = 0, []
    for k in range(1, k_max + 1):
        for n in seq.labels():
            entry = lattice.get(k, n)
            if not entry.ok:
                continue
            cells += 1
            try:
                f, g = _molecule_cell(seq, diffs, 3 * k + 3, n)
                agree = f != 0 and entry.value == _t_value(seq, diffs, k, n) == g / f
            except SeqAccelError:
                agree = False
            if not agree:
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
    # each maps (F, G, k, n) -> lhs - rhs, or None if an operand is missing
    "fg_fg_ff": lambda F, G, k, n: _residual(
        [(F, k, n), (G, k, n + 1)], [(F, k, n + 1), (G, k, n)],
        [(F, k + 1, n), (F, k - 1, n + 1)]),
    "fg_cross": lambda F, G, k, n: _residual(
        [(F, k + 2, n), (G, k - 1, n + 1)], [(F, k - 1, n + 1), (G, k + 2, n)],
        [(F, k + 1, n + 1), (F, k, n)]),
    "ff_ff_ff": lambda F, G, k, n: _residual(
        [(F, k, n), (F, k + 2, n + 1)], [(F, k, n + 1), (F, k + 2, n)],
        [(F, k + 3, n), (F, k - 1, n + 1)]),
}


def _residual(term_a, term_b, term_c):
    """(a - b) - c for the products a, b, c of the three operand pairs.

    None if an operand is missing.  The operands are multiplied as
    numerators and denominators and the result is normalised once.
    """
    try:
        pairs = [[store[level, n] for store, level, n in pair] for pair in (term_a, term_b, term_c)]
    except KeyError:
        return None
    (a_num, a_den), (b_num, b_den), (c_num, c_den) = [
        (x.numerator * y.numerator, x.denominator * y.denominator) for x, y in pairs]
    lhs_num, lhs_den = a_num * b_den - b_num * a_den, a_den * b_den
    return Fraction(lhs_num * c_den - c_num * lhs_den, lhs_den * c_den)


def check_bilinear(seq, k_max):
    """Residuals of the three bilinear identities over all computable cells.

    Exact mode only: the identities hold exactly, and a residual of
    rounded F and G would measure the rounding.
    """
    if not seq.mode.is_exact:
        raise ModeUnsupportedError(f"check_bilinear needs exact arithmetic, not {seq.mode.name}")
    mol = molecule_solution(seq, k_max + 3)
    residuals = {name: {} for name in _BILINEAR_FORMS}
    for name, form in _BILINEAR_FORMS.items():
        for k in range(1, k_max + 1):
            for n in seq.labels():
                r = form(mol.F, mol.G, k, n)
                if r is not None:
                    residuals[name][(k, n)] = r
    checked = sum(map(len, residuals.values()))
    # F_0 = 0 is structural; only positive levels signal degeneracy
    zero_f = [key for key, v in mol.F.items() if v == 0 and key[0] > 0]
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
