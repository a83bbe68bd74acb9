"""Convergence-rate estimation and error tables."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NonFiniteError, SpecError, WindowError


class Classification(enum.Enum):
    LINEAR = "linear"
    LOGARITHMIC = "logarithmic"
    HYPERLINEAR = "hyperlinear"
    DIVERGENT = "divergent"
    INDETERMINATE = "indeterminate"


@dataclass
class ConvergenceReport:
    rho_estimates: list
    rho: object  # representative signed estimate, None if nothing usable
    classification: Classification
    negative_rho: bool
    limit_used: object
    delta: float

    def describe(self):
        name = self.classification.value
        if self.negative_rho and self.classification is Classification.LINEAR:
            name += " (alternating, rho < 0)"
        return name


def estimate_rho(seq, limit=None, delta=0.05):
    """Remainder-ratio estimates (S_{n+1} - S)/(S_n - S) and a classification.

    With no known limit the last element serves as a proxy and the final
    two ratios are dropped.  Classification keys off the representative
    signed estimate from the final third of the ratio list:

    * within delta of +1        -> LOGARITHMIC
    * magnitude at most delta   -> HYPERLINEAR
    * magnitude at least 1+delta -> DIVERGENT
    * otherwise                 -> LINEAR (sign reported separately)

    ``delta`` must be a finite number >= 0.  A remainder beyond the
    mode's range (a float64 difference of two finite values may
    overflow) is a :class:`NonFiniteError` that names its label, and so
    is a returned ratio beyond it (a float64 remainder divided by a
    subnormal one may overflow), which names both labels.  In rational
    and bigfloat mode every ratio is finite.
    """
    if not 0 <= delta < float("inf"):
        raise SpecError(f"delta must be a finite number >= 0, got {delta}")
    if len(seq) < 3:
        raise WindowError("need at least 3 elements to estimate rho")
    proxy = limit is None
    if proxy:
        limit = seq.values[-1]
    remainders = [v - limit for v in seq.values]
    for n, r in zip(seq.labels(), remainders):
        if not seq.mode.is_finite(r):
            raise NonFiniteError(f"the remainder S_{n} - S is beyond the {seq.mode.name} range")
    ratios = [None if r0 == 0 else r1 / r0 for r0, r1 in zip(remainders, remainders[1:])]
    if proxy:
        ratios = ratios[:-2]
    for n, r in zip(seq.labels(), ratios):
        if r is not None and not seq.mode.is_finite(r):
            raise NonFiniteError(f"the ratio (S_{n + 1} - S)/(S_{n} - S) is beyond the {seq.mode.name} range")
    usable = [r for r in ratios if r is not None]
    if not usable:
        return ConvergenceReport(
            ratios, None, Classification.INDETERMINATE, False, None, delta
        )
    tail = usable[-max(1, len(usable) // 3):]
    rep = sorted(tail)[len(tail) // 2]
    spread = max(tail) - min(tail)  # in the mode: a Fraction may lie beyond the float range
    limit_used = None if proxy else limit
    if proxy and spread > 0.5:
        cls = Classification.INDETERMINATE
    elif abs(rep - 1) <= delta:
        cls = Classification.LOGARITHMIC
    elif abs(rep) <= delta:
        cls = Classification.HYPERLINEAR
    elif abs(rep) >= 1 + delta:
        cls = Classification.DIVERGENT
    else:
        cls = Classification.LINEAR
    return ConvergenceReport(ratios, rep, cls, rep < 0, limit_used, delta)


def error_columns(table, limit):
    """``{k: (prefix, length)}`` of the errors |T_k^(n) - S| of ``table``'s
    columns, each rounded as its cell's mode rounds (a bigfloat cell
    carries its precision): each live value's error in its place,
    ``None`` where the cell broke down, and the same lengths.

    An error beyond the mode's range (a float64 difference of two finite
    values may overflow) is a :class:`NonFiniteError` that names its cell.
    """
    columns = {k: ([None if v is None else abs(v - limit) for v in prefix], length)
               for k, (prefix, length) in table.columns.items()}
    for k, (errors, _) in columns.items():
        if math.inf in errors:
            n = table.start_label + errors.index(math.inf)
            raise NonFiniteError(f"the error |T_{k}^({n}) - S| is beyond the {table.mode.name} range")
    return columns


def error_table(table, limit):
    """Map (k, n) -> |T_k^(n) - S| of :func:`error_columns`, in ``table.entries``
    order, with ``Status.BREAKDOWN`` for each BREAKDOWN cell.

    Its keys are ``table``'s own key objects, so a later whole-table read
    of ``table`` makes none.
    """
    return table.cells(lambda e: e, error_columns(table, limit))
