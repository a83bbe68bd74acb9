"""The lattice convergence acceleration algorithm.

The engine fills a two-index field U_k^n level by level from

    U_1^n = 0,  U_2^n = n,  U_3^n = S_n,
    U_{k+3}^n = U_k^{n+1} - 1 / ((U_{k+2}^{n+1} - U_{k+2}^n)
                                 (U_{k+1}^{n+1} - U_{k+1}^n)),

and reads off the transform column k as level 3k+3, so that
T_0^(n) = S_n.  Each level is a plain list over the labels, built by
the rhombus kernel it shares with the epsilon engine
(:mod:`seqaccel.rhombus`), with ``None`` for a BREAKDOWN cell.  A zero
(exact mode) or negligibly small (float modes) difference factor, or a
float64 result that is not finite, marks the cell BREAKDOWN, and the
mark poisons every cell that depends on it.  While filling, only the
three live levels and the differences of the top two are held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import WindowError
from .rhombus import differences, rhombus
from .tables import UNAVAILABLE_ENTRY, TransformTable, column_entries


@dataclass
class LatticeTable:
    """Levels of U_k^n keyed by level index k = 1, 2, 3, ...

    Each level is a dict label -> TransformEntry.  ``label_offset``
    shifts the second level only; the transform outputs are invariant
    under it.
    """

    label_offset: int = 0
    levels: dict = field(default_factory=dict)

    def entry(self, k, n):
        return self.levels.get(k, {}).get(n, UNAVAILABLE_ENTRY)


def _levels(seq, max_order, threshold, label_offset, keep):
    """{m: U_m as a plain list} for the levels m = 1 .. 3 max_order + 3 with keep(m)."""
    if max_order < 0:
        raise WindowError("max_order must be nonnegative")
    mode = seq.mode
    if threshold is None:
        threshold = mode.default_breakdown_threshold
    with mode.context():
        below = [mode.convert(0)] * len(seq)
        mid = [mode.convert(n + label_offset) for n in seq.labels()]
        top = list(seq.values)
        levels = {m: u for m, u in enumerate((below, mid, top), 1) if keep(m)}
        d_top = differences(mid, mode, threshold)
        for m in range(4, 3 * max_order + 4):
            d_mid, d_top = d_top, differences(top, mode, threshold)
            new = rhombus(below, (d_top, d_mid), True, mode)
            if keep(m):
                levels[m] = new
            below, mid, top = mid, top, new
    return levels


def build_lattice(seq, max_order, breakdown_threshold=None, label_offset=0):
    """Full lattice up to level 3*max_order + 3."""
    levels = _levels(seq, max_order, breakdown_threshold, label_offset, lambda m: True)
    return LatticeTable(label_offset, {
        m: column_entries(u, seq.start_label) for m, u in levels.items()})


def lbq_transform(seq, max_order, breakdown_threshold=None):
    """TransformTable of T_k^(n) = U_{3k+3}^n for k = 0..max_order."""
    levels = _levels(seq, max_order, breakdown_threshold, 0, lambda m: m % 3 == 0)
    return TransformTable.from_columns(
        list(levels.values()), seq.start_label, seq.end_label, 3)
