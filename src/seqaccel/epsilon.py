"""Wynn's epsilon algorithm, used as the comparison baseline.

Internal columns carry all subscripts of the recursion

    eps_{-1}^(n) = 0,  eps_0^(n) = S_n,
    eps_{j+1}^(n) = eps_{j-1}^(n+1) + 1 / (eps_j^(n+1) - eps_j^(n));

only the even-subscript columns are exported, as entry (k, n) =
eps_{2k}^(n).  Each column is a plain list over the labels, built by
the rhombus kernel shared with the lattice engine
(:mod:`seqaccel.rhombus`), so breakdown is marked (``None``) and
propagated exactly as there.  Only the two live columns and the
exported ones are held.
"""

from __future__ import annotations

from .errors import WindowError
from .rhombus import differences, rhombus
from .tables import TransformTable


def epsilon_transform(seq, max_order, breakdown_threshold=None):
    if max_order < 0:
        raise WindowError("max_order must be nonnegative")
    mode = seq.mode
    if breakdown_threshold is None:
        breakdown_threshold = mode.default_breakdown_threshold
    with mode.context():
        prev = [mode.convert(0)] * (len(seq) + 1)
        cur = list(seq.values)
        columns = [cur]
        for j in range(1, 2 * max_order + 1):
            d = differences(cur, mode, breakdown_threshold)
            prev, cur = cur, rhombus(prev, (d,), False, mode)
            if j % 2 == 0:
                columns.append(cur)
    return TransformTable.from_columns(columns, seq.start_label, seq.end_label, 2)
