"""The lattice convergence acceleration algorithm.

The engine fills a two-index field U_k^n level by level from

    U_1^n = 0,  U_2^n = n,  U_3^n = S_n,
    U_{k+3}^n = U_k^{n+1} - 1 / ((U_{k+2}^{n+1} - U_{k+2}^n)
                                 (U_{k+1}^{n+1} - U_{k+1}^n)),

and reads off the transform column k as level 3k+3, so that
T_0^(n) = S_n.  The three seed levels go to the rhombus driver it
shares with the epsilon engine (:func:`seqaccel.rhombus.fill`), which
returns each level as its nominal length and a plain-list live prefix,
with ``None`` for a BREAKDOWN cell; the cells past the prefix are
BREAKDOWN.  A zero (exact mode) or negligibly small (float modes)
difference factor, or a float64 result that is not finite, marks the
cell BREAKDOWN, and the mark poisons every cell that depends on it.
"""

from __future__ import annotations

from .rhombus import fill
from .tables import TransformTable


def _levels(seq, max_order, threshold, keep):
    """{m: (live prefix, length) of U_m} for the levels m = 1 .. 3 max_order + 3 with keep(m)."""
    mode = seq.mode
    seeds = ([mode.convert(0)] * len(seq),
             [mode.convert(n) for n in seq.labels()],
             list(seq.values))
    return fill(seq, seeds, max_order, threshold, keep)


def build_lattice(seq, max_order, breakdown_threshold=None):
    """TransformTable of every level U_m^n, m = 1 .. 3 max_order + 3, keyed (m, n)."""
    levels = _levels(seq, max_order, breakdown_threshold, lambda m: True)
    return TransformTable.from_columns(levels, seq)


def lbq_transform(seq, max_order, breakdown_threshold=None):
    """TransformTable of T_k^(n) = U_{3k+3}^n for k = 0..max_order."""
    levels = _levels(seq, max_order, breakdown_threshold, lambda m: m % 3 == 0)
    return TransformTable.from_columns({m // 3 - 1: u for m, u in levels.items()}, seq)
