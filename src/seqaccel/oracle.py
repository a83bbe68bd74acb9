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
of a table, and every determinant is an integer over a power of D: its
number of difference rows (``_power``), which depends on its order and
kind, never on its label.  So a label column is a list of ints with one
power.  The work stays in integers until a public value is formed, and
each public value is one Fraction: a T ratio, and the molecule ratio
G/F that ``verify_routes`` compares, is num / (den * D), an F or G is
one integer over its column's power of D, each nonzero bilinear
residual is one integer over a power of D, and a zero residual is the
shared Fraction(0).

The routes have one label-column builder, ``_orders``.  Given the
highest order wanted of each kind of determinant, (shift, head), it
builds the one difference table those orders read.  Each order's label
column is condensed from the columns of the two orders below it by
Sylvester's identity (Dodgson 1866, Bareiss 1968), one exact integer
division per cell; where the divisor is zero, that one cell is its own
``bareiss_det``.  The kinds share the columns of the determinants
without a head row, one family per parity of the shift.
``_t_columns`` reads the numerator and denominator of T from it;
``oracle_transform`` and ``verify_routes`` both read T that way.  The
molecule (and with it ``check_bilinear``) asks it for Psi_1, Psi_2, ...
of each D^shift S it reads, and Phi_1, Phi_2, ... of D S, as deep as the
highest order the requested levels read.  ``verify_routes`` makes one
call for T's kinds and the molecule's, so both read one table.  F and G
stay closed-form determinants, so ``check_bilinear`` checks identities
the molecule did not use.  ``psi_det``, ``phi_det``, ``t_denominator``
and ``t_determinant`` take each cell by its own ``bareiss_det``, an
independent reference for the columns.  Every determinant of order 1
or more checks that its columns lie in the sequence, also one that
reads no difference row.

Like the engines' tables, the routes are label columns: one list of
ints per order or level, with one power of D, from the start label on,
as far as the window fits.  A window only shrinks as the label grows,
so every column is a prefix of the labels, and its next label n + 1 is
the column read from its second cell.  ``check_bilinear`` and
``verify_routes`` zip the columns they compare; only
``molecule_solution``'s public F and G are keyed by (level, label).

Each public result is rounded to the sequence's mode once, at the end,
by ``mode.convert``, so a float64 T_k^(n) is the correctly rounded
transform of its inputs.  Every mode takes that one call: in exact mode
it returns the Fraction as it is.  ``verify_routes`` checks
the lattice against both routes, on the condensed label columns of one
table; agreement is an end-to-end correctness check of all three.
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


def _power(k, head):
    """The power of the scale under an order-k determinant of kind (shift, head): its number of difference rows.

    Below its ``head`` row, if any, every row is a difference row; an
    order below 1 has none.  The power depends only on the order and the
    kind, never on the label, so a label column has one power.
    """
    return max(k - (head is not None), 0)


def _last_order(k, shift, head):
    """The highest difference order an order-k determinant reads, or 0 (S itself) when it reads none.

    Below its ``head`` row, if any, its rows are D^shift S, D^(shift+2) S, ....
    """
    rows = _power(k, head)
    return shift + 2 * rows - 2 if rows else 0


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
    """k x k determinant of ``_block`` at label n, an integer over scale**_power(k, head).

    Conventions: k = -1 gives 0, k = 0 gives 1.  A window outside the
    sequence raises WindowError.
    """
    if k <= 0:
        if k < -1:
            raise WindowError(f"determinant order {k} is below -1")
        return k + 1
    if not _fits(seq, diffs, k, n, shift, head):
        raise WindowError(f"labels {n}..{n + k - 1} of the order-{k} determinant over D^{shift} S "
                          f"lie outside the sequence")
    return bareiss_det(_block(seq, diffs, k, n, shift, head))


def _single(seq, k, n, shift=0, head=None):
    """``_hankel_det`` of ``seq`` alone, over a difference table as deep as it reads, as (diffs, det)."""
    diffs = _difference_table(seq, {(shift, head): k})
    return diffs, _hankel_det(seq, diffs, k, n, shift, head)


def _exact(seq, k, n, shift=0, head=None):
    """The Fraction of ``_single``'s determinant: its integer over scale**_power(k, head)."""
    diffs, det = _single(seq, k, n, shift, head)
    return Fraction(det, diffs.scale ** _power(k, head))


def psi_det(v, k, n):
    """k x k determinant with rows v, D^2 v, D^4 v, ... over columns n..n+k-1.

    Conventions: k = -1 gives 0, k = 0 gives 1.
    """
    return v.mode.convert(_exact(v, k, n))


def phi_det(v, k, n):
    """Like psi_det but the first row holds the column labels n..n+k-1."""
    return v.mode.convert(_exact(v, k, n, head="labels"))


def t_denominator(seq, k, n):
    """(k+1) x (k+1) determinant with a row of ones over D^2 S, ..., D^(2k) S."""
    if k < 0:
        raise WindowError("transform order k must be nonnegative")
    return seq.mode.convert(_exact(seq, k + 1, n, 2, "ones"))


def t_determinant(seq, k, n):
    """Transform value T_k^(n) as the ratio of the two (k+1)x(k+1) determinants.

    The numerator is over scale**(k+1) and the denominator over
    scale**k, so T is num / (den * scale).
    """
    if k < 0:
        raise WindowError("transform order k must be nonnegative")
    diffs, den = _single(seq, k + 1, n, 2, "ones")
    if den == 0:
        raise SingularError(f"zero denominator determinant at (k={k}, n={n})")
    return seq.mode.convert(Fraction(_hankel_det(seq, diffs, k + 1, n), den * diffs.scale))


def _t_tops(k_max):
    """The kinds that T_0, ..., T_k_max read, as ``_orders`` tops: the numerator and the denominator."""
    return {(0, None): k_max + 1, (2, "ones"): k_max + 1}


def _t_columns(diffs, orders):
    """The exact label columns T_0, T_1, ... from the orders of ``_t_tops``; None is a zero denominator.

    The numerator of T_k^(n) is the order-(k+1) Psi of S, over
    scale**(k+1), and its denominator the order-(k+1) determinant with a
    row of ones over D^2 S, ..., D^(2k) S, over scale**k; so T_k^(n) is
    num / (den * scale).  Both windows fit while n + 3k is a label, so
    column k of each is as long, and the two are zipped.
    """
    return [[Fraction(num, den * diffs.scale) if den else None for num, den in zip(nums, dens)]
            for nums, dens in zip(orders[0, None][2:], orders[2, "ones"][2:])]


def _cell(mode, x):
    """x rounded to the mode, or None (BREAKDOWN) for no x or one beyond the mode's range."""
    if x is None:
        return None
    try:
        return mode.convert(x)
    except NonFiniteError:
        return None


def oracle_transform(seq, k_max):
    """TransformTable of T_k^(n) from the determinant ratio; a failed cell is BREAKDOWN.

    A float64 value beyond the float range is a failed cell too.
    """
    if k_max < 0:
        raise WindowError("max_order must be nonnegative")
    columns = [[_cell(seq.mode, x) for x in column]
               for column in _t_columns(*_orders(seq, _t_tops(k_max)))]
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


def _condensed(seq, diffs, j, shift, head, x, y, below):
    """The order-j label column of (shift, head), condensed from the columns of the two orders below.

    x holds the minors of the order-j block without its last row, y
    those without its first row, each over the block's first j - 1
    columns when read at n, or its last j - 1 when read at n + 1;
    ``below`` holds the inner minors, without both, read at n + 1.  By
    Sylvester's identity (Desnanot-Jacobi), cell i is
    (x[i] y[i+1] - y[i] x[i+1]) / below[i+1], an exact division; where
    below[i+1] is 0, the cell is its own ``bareiss_det``.  The zip ends
    where the order-j window stops fitting.
    """
    return [(a * d - b * c) // e if e else bareiss_det(_block(seq, diffs, j, seq.start_label + i, shift, head))
            for i, (a, b, c, d, e) in enumerate(zip(x, y, x[1:], y[1:], below[1:]))]


def _orders(seq, tops):
    """The difference table that ``tops`` reads, and the label column of every order it names.

    ``tops`` maps (shift, head) to the highest order wanted of that
    kind.  Returns (diffs, orders), where orders[shift, head][i] is the
    label column of the order-(i - 1) determinant: a list of ints, its
    values from the start label on, as far as its window fits.  Every
    cell of the order-j column is over scale**_power(j, head).  A window
    only shrinks as the label grows, so each column is a prefix of the
    labels.  The kinds share columns (the ones column is order 0 of
    every kind and order 1 of a head "ones" kind), so no reader may
    change one.

    Each order is condensed from the two orders below it (``_condensed``).
    H[s][j], the order-j column with rows D^s S, D^(s+2) S, ..., comes
    from H[s][j-1] and H[s+2][j-1] over H[s+2][j-2], with H[s][0] = 1 and
    H[s][1] = D^s S; a head row's order j comes from its order j - 1 and
    H[s][j-1] over H[s][j-2].  The kinds share their H columns, one shift
    family per parity.
    """
    diffs = _difference_table(seq, tops)
    need = {}  # shift: the highest order of H[shift] read
    for (shift, head), top in tops.items():
        top -= head is not None  # a head row's order j reads H[shift] up to order j - 1
        for i in range(top):
            need[shift + 2 * i] = max(need.get(shift + 2 * i, 0), top - i)
    zeros, ones = [0] * len(seq), [1] * len(seq)
    H = {}
    for s in sorted(need, reverse=True):
        H[s] = [ones, diffs.rows[s] if s < len(diffs.rows) else []]
        for j in range(2, need[s] + 1):
            H[s].append(_condensed(seq, diffs, j, s, None, H[s][j - 1], H[s + 2][j - 1], H[s + 2][j - 2]))
    orders = {}
    for (shift, head), top in tops.items():
        if head is None:
            columns = H.get(shift, [ones])
        else:
            columns = [ones, list(seq.labels()) if head == "labels" else ones]
            for j in range(2, top + 1):
                columns.append(_condensed(seq, diffs, j, shift, head, columns[j - 1], H[shift][j - 1], H[shift][j - 2]))
        orders[shift, head] = ([zeros] + columns)[:top + 2]
    return diffs, orders


def _molecule(seq, levels, tops=()):
    """The label columns of F and G at the ``levels``, and the orders they read, as (diffs, orders, F, G).

    F and G are dicts {level: (column, power)}.  A column is a list of
    ints, the level's values from the start label on, as far as both the
    F and the G window fit, each over scale**power; each level's cells
    are a prefix of the labels.  The Psi and Phi that the levels read
    come from one ``_orders`` call, each (shift, head) as deep as the
    highest order the levels read.  ``tops`` names more kinds for the
    same call, which ``orders`` then holds too (``verify_routes`` adds
    T's kinds, so T and the molecule share one table).  Level 2 is the
    seed level: G_2/F_2 = Phi_1(D S)/Psi_0(D^2 S) = n is the lattice's
    seed U_2^n = n, defined at every label of S, so Phi_1, which reads
    only its label row, is read at the last label too, where D S has no
    cell.
    """
    tops = dict(tops)
    for level in levels:
        k, r = divmod(level, 3)
        for shift, head, offset in _MOLECULE[r]:
            tops[shift, head] = max(tops.get((shift, head), -1), k + offset)
    diffs, orders = _orders(seq, tops)
    F, G = {}, {}
    for level in levels:
        k, r = divmod(level, 3)
        # a Psi or Phi of D^shift S needs D^shift S to exist, even Phi_1,
        # which reads only its label row; a missing one is read as an empty
        # column, since the kinds share their columns (see ``_orders``)
        (f, p), (g, q) = ((orders[shift, head][k + offset + 1] if shift < len(seq) or k + offset < 1 else [],
                           _power(k + offset, head)) for shift, head, offset in _MOLECULE[r])
        size = min(len(f), len(g))
        F[level], G[level] = (f[:size], p), ([-x for x in g[:size]] if r == 1 else g[:size], q)
    return diffs, orders, F, G


def molecule_solution(seq, max_level):
    """Populate F and G for levels 0..max_level wherever the window fits.

    Each value is rounded once to the mode; a float64 cell whose F or G
    lies beyond the float range is left out, like one whose window does
    not fit.  Level 2 is the seed level: G_2/F_2 = n = U_2^n at every
    label of S, the last one included.
    """
    mol = MoleculeSolution()
    diffs, _, F, G = _molecule(seq, range(max_level + 1))
    for level, (fs, p) in F.items():
        gs, q = G[level]
        df, dg = diffs.scale ** p, diffs.scale ** q
        for n, f, g in zip(seq.labels(), fs, gs):
            f, g = _cell(seq.mode, Fraction(f, df)), _cell(seq.mode, Fraction(g, dg))
            if f is not None and g is not None:
                mol.F[level, n], mol.G[level, n] = f, g
    return mol


def verify_routes(seq, k_max):
    """Check T_k^(n), 1 <= k <= k_max, on every VALID lattice cell.

    The lattice value must equal the exact determinant ratio and the
    exact molecule ratio G/F at level 3k+3.  Both are label columns
    from one ``_orders`` call over one table: ``_molecule`` builds T's
    kinds beside its own.  At level 3k+3, G = Psi_{k+1}(S) is over
    scale**(k+1) and F = Psi_k(D^3 S) over scale**k, so G/F is
    g / (f * scale), like T.  For each k, the lattice column's prefix,
    the T column and the molecule column at level 3k+3 are walked
    together by label; all three windows fit while n + 3k is a label.
    A zero denominator or F = 0 counts as a mismatch.  Returns the
    number of cells compared and the (k, n) of each mismatch.
    """
    lattice = lbq_transform(seq, k_max)
    diffs, orders, F, G = _molecule(seq, range(6, 3 * k_max + 4, 3), _t_tops(k_max))
    T = _t_columns(diffs, orders)
    cells, mismatches = 0, []
    for k in range(1, k_max + 1):
        (fs, _), (gs, _) = F[3 * k + 3], G[3 * k + 3]
        for n, value, t, f, g in zip(seq.labels(), lattice.columns[k][0], T[k], fs, gs):
            if value is None:
                continue
            cells += 1
            if not (f != 0 and value == t == Fraction(g, f * diffs.scale)):
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


def _next(operand):
    """A (column, power) operand read at n + 1: its column from the second cell."""
    column, power = operand
    return column[1:], power


_BILINEAR_FORMS = {
    # each maps the F and G operands {level: (column, power)} and a level k
    # to the operand pairs of the products a, b, c of the identity a - b = c
    # at (k, n); an operand read at n + 1 is its ``_next``
    "fg_fg_ff": lambda F, G, k: (
        (F[k], _next(G[k])), (_next(F[k]), G[k]), (F[k + 1], _next(F[k - 1]))),
    "fg_cross": lambda F, G, k: (
        (F[k + 2], _next(G[k - 1])), (_next(F[k - 1]), G[k + 2]), (_next(F[k + 1]), F[k])),
    "ff_ff_ff": lambda F, G, k: (
        (F[k], _next(F[k + 2])), (_next(F[k]), F[k + 2]), (F[k + 3], _next(F[k - 1]))),
}

_ZERO = Fraction(0)


def _residuals(scale, pairs):
    """The residuals (a - b) - c of the products a, b, c of the three operand ``pairs``.

    Each operand is a (column, power): a column of ints, each over
    scale**power.  The three integer products are aligned to the largest
    power once per identity and level, from the operands' powers, so
    each residual is one integer over scale**power.  The powers differ
    at low levels.  The residuals run as far as every operand has a
    cell; a zero residual is the shared Fraction(0).
    """
    powers = [p + q for (_, p), (_, q) in pairs]
    top = max(powers)
    (sa, sb, sc), den = [scale ** (top - p) for p in powers], scale ** top
    columns = [column for pair in pairs for column, _ in pair]
    nums = (a * b * sa - c * d * sb - e * f * sc for a, b, c, d, e, f in zip(*columns))
    return [Fraction(num, den) if num else _ZERO for num in nums]


def check_bilinear(seq, k_max):
    """Residuals of the three bilinear identities over all computable cells.

    Exact mode only: the identities hold exactly, and a residual of
    rounded F and G would measure the rounding.  The residuals are
    taken on the integer molecule's label columns, F and G each a column
    of integers over one power of the scale, so only a nonzero residual
    becomes a Fraction.  At each level k an identity's operands are the
    F and G columns of nearby levels, read at n or at n + 1; its cells
    are a zip over those columns, as far as every operand has a cell.
    """
    if not seq.mode.is_exact:
        raise ModeUnsupportedError(f"check_bilinear needs exact arithmetic, not {seq.mode.name}")
    diffs, _, F, G = _molecule(seq, range(k_max + 4))
    residuals = {name: {} for name in _BILINEAR_FORMS}
    for name, form in _BILINEAR_FORMS.items():
        for k in range(1, k_max + 1):
            residuals[name].update(((k, n), r) for n, r in zip(seq.labels(), _residuals(diffs.scale, form(F, G, k))))
    checked = sum(map(len, residuals.values()))
    # F_0 = 0 is structural; only positive levels signal degeneracy
    zero_f = [(level, n) for level, (fs, _) in F.items() if level > 0
              for n, f in zip(seq.labels(), fs) if f == 0]
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
