"""Wynn's epsilon algorithm, used as the comparison baseline.

Internal columns carry all subscripts of the recursion

    eps_{-1}^(n) = 0,  eps_0^(n) = S_n,
    eps_{j+1}^(n) = eps_{j-1}^(n+1) + 1 / (eps_j^(n+1) - eps_j^(n));

only the even-subscript columns are exported, as entry (k, n) =
eps_{2k}^(n).  The two seed columns go to the rhombus driver shared
with the lattice engine (:func:`seqaccel.rhombus.fill`), so breakdown
is marked (``None``) and propagated exactly as there.
"""

from __future__ import annotations

from .rhombus import fill
from .tables import TransformTable


def epsilon_transform(seq, max_order, breakdown_threshold=None):
    """TransformTable of eps_{2k}^(n) for k = 0..max_order."""
    # driver column m is eps_{m-2}
    seeds = ([seq.mode.convert(0)] * len(seq), list(seq.values))
    columns = fill(seq, seeds, max_order, breakdown_threshold, lambda m: m % 2 == 0)
    return TransformTable.from_columns({m // 2 - 1: c for m, c in columns.items()}, seq)
