"""Determinant route to the transformation, and identity checks.

The routes here are deliberately independent of the lattice recursion:
the transform values come from explicit determinant ratios, the
molecule quantities F_k^n and G_k^n from closed formulas built on the
Hankel-like determinants ``psi_det`` and ``phi_det``, and the bilinear
identities are verified as residuals.  Every determinant row is a slice
of one table of forward differences, built once per call.  In exact
mode that table is integral: it holds D^j (scale * S), where scale is
the least common denominator of S, so every determinant is an integer
Bareiss elimination followed by one division by scale**r (r the number
of difference rows), one normalised Fraction per determinant.
``verify_routes`` checks the lattice against both routes; agreement is
an end-to-end correctness check of all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .determinants import bareiss_det, pivoted_det, solve_exact
from .errors import SeqAccelError, SingularError, SpecError, WindowError
from .lbq import lbq_transform
from .modes import RATIONAL
from .sequences import Sequence
from .tables import TransformTable


class _Differences(NamedTuple):
    rows: list  # rows[j] = D^j (scale * S)
    scale: object  # least common denominator of S in exact mode, None in float modes


def _difference_table(seq, order):
    """D^0, D^1, ..., D^order of S, stopping at the last nonempty one.

    In exact mode S is first scaled to integers, so every row is a list
    of ints; in float modes the rows are D^j S and the scale is None.
    """
    values, scale = list(seq.values), None
    if seq.mode.is_exact:
        scale = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (scale // v.denominator) for v in values]
    rows = [values]
    for _ in range(min(order, len(values) - 1)):
        prev = rows[-1]
        rows.append([b - a for a, b in zip(prev, prev[1:])])
    return _Differences(rows, scale)


def _hankel_det(seq, diffs, k, n, shift=0, head=None):
    """k x k determinant over the columns n..n+k-1 of D^shift S.

    The rows are the ``head`` row if one is given (``"labels"``: the
    labels n..n+k-1, or ``"ones"``), then D^shift S, D^(shift+2) S, ...
    read from ``diffs``, since D^(2i) (D^shift S) = D^(2i+shift) S.  In
    exact mode the head row is ints too, and the integer determinant is
    divided by scale**r for the r scaled rows.  Conventions: k = -1
    gives 0, k = 0 gives 1.
    """
    if k <= 0:
        if k < -1:
            raise WindowError(f"determinant order {k} is below -1")
        return seq.mode.convert(k + 1)
    rows = []
    if head is not None:
        row = range(n, n + k) if head == "labels" else [1] * k
        rows.append([seq.mode.convert(x) for x in row] if diffs.scale is None else list(row))
    lo = n - seq.start_label
    scaled = k - len(rows)  # the difference rows, each scaled by diffs.scale
    for order in range(shift, shift + 2 * scaled, 2):
        if lo < 0 or order >= len(diffs.rows) or lo + k > len(diffs.rows[order]):
            raise WindowError(f"labels {n}..{n + k - 1} of the order-{order} "
                              f"differences lie outside the sequence")
        rows.append(diffs.rows[order][lo:lo + k])
    if diffs.scale is None:
        return pivoted_det(rows)
    return Fraction(bareiss_det(rows), diffs.scale ** scaled)


def psi_det(v, k, n):
    """k x k determinant with rows v, D^2 v, D^4 v, ... over columns n..n+k-1.

    Conventions: k = -1 gives 0, k = 0 gives 1.
    """
    return _hankel_det(v, _difference_table(v, 2 * k - 2), k, n)


def phi_det(v, k, n):
    """Like psi_det but the first row holds the column labels n..n+k-1."""
    return _hankel_det(v, _difference_table(v, 2 * k - 4), k, n, head="labels")


def _t_denominator(seq, diffs, k, n):
    if k < 0:
        raise WindowError("transform order k must be nonnegative")
    return _hankel_det(seq, diffs, k + 1, n, 2, "ones")


def t_denominator(seq, k, n):
    """(k+1) x (k+1) determinant with a row of ones over D^2 S, ..., D^(2k) S."""
    return _t_denominator(seq, _difference_table(seq, 2 * k), k, n)


def _t_value(seq, diffs, k, n):
    den = _t_denominator(seq, diffs, k, n)
    if den == 0:
        raise SingularError(f"zero denominator determinant at (k={k}, n={n})")
    return _hankel_det(seq, diffs, k + 1, n) / den


def t_determinant(seq, k, n):
    """Transform value T_k^(n) as the ratio of the two (k+1)x(k+1) determinants."""
    with seq.mode.context():
        return _t_value(seq, _difference_table(seq, 2 * k), k, n)


def _t_cell(seq, diffs, k, n):
    """_t_value, or None (BREAKDOWN) where it raises."""
    try:
        return _t_value(seq, diffs, k, n)
    except SeqAccelError:
        return None


def oracle_transform(seq, k_max):
    """TransformTable of T_k^(n) from the determinant ratio; a failed cell is BREAKDOWN."""
    with seq.mode.context():
        diffs = _difference_table(seq, 2 * k_max)
        columns = {
            k: [_t_cell(seq, diffs, k, n) for n in range(seq.start_label, seq.end_label - 3 * k + 1)]
            for k in range(k_max + 1)
        }
    return TransformTable.from_columns(columns, seq.start_label, seq.end_label)


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
    """Populate F and G for levels 0..max_level wherever the window fits."""
    mol = MoleculeSolution()
    with seq.mode.context():
        diffs = _difference_table(seq, len(seq) - 1)
        for level in range(0, max_level + 1):
            for n in seq.labels():
                try:
                    f, g = _molecule_cell(seq, diffs, level, n)
                except WindowError:
                    continue
                mol.F[(level, n)] = f
                mol.G[(level, n)] = g
    return mol


def verify_routes(seq, k_max):
    """Check T_k^(n), 1 <= k <= k_max, on every VALID lattice cell.

    The lattice value must equal the determinant ratio and the molecule
    ratio G/F at level 3k+3.  A route that raises or has no value counts
    as a mismatch.  Returns the number of cells compared and the (k, n)
    of each mismatch.
    """
    lattice = lbq_transform(seq, k_max)
    mol = molecule_solution(seq, 3 * k_max + 3)
    cells, mismatches = 0, []
    for k in range(1, k_max + 1):
        for n in seq.labels():
            entry = lattice.get(k, n)
            if not entry.ok:
                continue
            cells += 1
            try:
                agree = entry.value == t_determinant(seq, k, n) == mol.ratio(3 * k + 3, n)
            except SeqAccelError:
                agree = False
            if not agree:
                mismatches.append((k, n))
    return cells, mismatches


@dataclass
class BilinearReport:
    residuals: dict
    checked: int
    max_scaled_residual: float
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

    Returns the residual and, when it is nonzero, its scale
    max(|a - b|, |c|, 1); None if an operand is missing.  Exact operands
    are multiplied as numerators and denominators and normalised once.
    """
    try:
        pairs = [[store[level, n] for store, level, n in pair] for pair in (term_a, term_b, term_c)]
    except KeyError:
        return None
    if isinstance(pairs[0][0], Fraction):
        (a_num, a_den), (b_num, b_den), (c_num, c_den) = [
            (x.numerator * y.numerator, x.denominator * y.denominator) for x, y in pairs]
        lhs_num, lhs_den = a_num * b_den - b_num * a_den, a_den * b_den
        r = Fraction(lhs_num * c_den - c_num * lhs_den, lhs_den * c_den)
        if r == 0:
            return r, None
        lhs, rhs = Fraction(lhs_num, lhs_den), Fraction(c_num, c_den)
    else:
        (a1, a2), (b1, b2), (c1, c2) = pairs
        lhs, rhs = a1 * a2 - b1 * b2, c1 * c2
        r = lhs - rhs
        if r == 0:
            return r, None
    return r, max(abs(lhs), abs(rhs), 1)


def check_bilinear(seq, k_max):
    """Residuals of the three bilinear identities over all computable cells."""
    mol = molecule_solution(seq, k_max + 3)
    residuals = {name: {} for name in _BILINEAR_FORMS}
    max_scaled = 0.0
    checked = 0
    with seq.mode.context():
        for name, form in _BILINEAR_FORMS.items():
            for k in range(1, k_max + 1):
                for n in seq.labels():
                    out = form(mol.F, mol.G, k, n)
                    if out is None:
                        continue
                    r, scale = out
                    residuals[name][(k, n)] = r
                    checked += 1
                    if r != 0:
                        max_scaled = max(max_scaled, float(abs(r) / scale))
    # F_0 = 0 is structural; only positive levels signal degeneracy
    zero_f = [key for key, v in mol.F.items() if v == 0 and key[0] > 0]
    return BilinearReport(residuals, checked, max_scaled, zero_f)


def kernel_coefficients(ratios):
    """Solve for the a_i certifying S_n = S + sum_i a_i D^{2i} S_n.

    The remainder sum_j c_j r_j^n lies in the order-k kernel iff
    p(r_j) = 1 for all j, where p(x) = sum_i a_i (x - 1)^{2i}.
    """
    k = len(ratios)
    ratios = [Fraction(r) for r in ratios]
    matrix = [[(r - 1) ** (2 * (i + 1)) for i in range(k)] for r in ratios]
    return solve_exact(matrix, [Fraction(1)] * k)


def kernel_construct(limit, ratios, weights, start_label, count, mode=RATIONAL):
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
    return Sequence.from_iterable(values, start_label, mode)
