"""Convergence-rate estimation and error tables."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import SpecError, WindowError


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

    ``delta`` must be a finite number >= 0.
    """
    if not 0 <= delta < float("inf"):
        raise SpecError(f"delta must be a finite number >= 0, got {delta}")
    if len(seq) < 3:
        raise WindowError("need at least 3 elements to estimate rho")
    proxy = limit is None
    if proxy:
        limit = seq.values[-1]
    remainders = [v - limit for v in seq.values]
    ratios = []
    for r0, r1 in zip(remainders, remainders[1:]):
        if r0 == 0:
            ratios.append(None)
        else:
            ratios.append(r1 / r0)
    if proxy:
        ratios = ratios[:-2]
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


def error_table(table, limit):
    """Map (k, n) -> |T_k^(n) - S|, rounded at the table's mode precision,
    with status markers passed through."""
    with table.mode.context():
        return table.cells(lambda value: abs(value - limit))
