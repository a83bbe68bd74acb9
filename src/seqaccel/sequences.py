"""Finite sequence prefixes with explicit integer labels."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyInputError, NonFiniteError, WindowError
from .modes import FLOAT64, value_text


@dataclass(frozen=True)
class Sequence:
    """A prefix {S_n0, ..., S_{n0+N}} of a sequence, in a single scalar mode.

    Lookup by label is exact: asking for an element outside the stored
    range raises :class:`WindowError` rather than extrapolating.  Every
    value must be finite in the mode (:class:`NonFiniteError` otherwise),
    and rational mode stores every value as a Fraction, so that its
    arithmetic stays exact.
    """

    start_label: int
    values: tuple
    mode: object = FLOAT64

    def __post_init__(self):
        if len(self.values) == 0:
            raise EmptyInputError("sequence must contain at least one element")
        values = tuple(self.values)
        for n, v in enumerate(values, self.start_label):
            if not self.mode.is_finite(v):
                raise NonFiniteError(f"S_{n} = {value_text(v)} is not finite in {self.mode.name} mode")
        if self.mode.is_exact:
            values = tuple(map(self.mode.convert, values))
        object.__setattr__(self, "values", values)

    @classmethod
    def from_iterable(cls, items, start_label=0, mode=FLOAT64):
        return cls(start_label, tuple(mode.convert(x) for x in items), mode)

    @property
    def end_label(self):
        return self.start_label + len(self.values) - 1

    def labels(self):
        return range(self.start_label, self.end_label + 1)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def at(self, n):
        if not self.start_label <= n <= self.end_label:
            raise WindowError(
                f"label {n} outside stored range "
                f"[{self.start_label}, {self.end_label}]"
            )
        return self.values[n - self.start_label]

    def map(self, fn):
        return Sequence(self.start_label, tuple(fn(v) for v in self.values), self.mode)


def forward_difference(seq, order=1):
    """d-fold forward difference: (Delta S)_n = S_{n+1} - S_n.

    The result keeps the original start label and is ``order`` elements
    shorter.
    """
    if order < 0:
        raise ValueError("difference order must be nonnegative")
    if order > len(seq) - 1:
        raise WindowError(
            f"difference order {order} exceeds available length {len(seq)}"
        )
    values = list(seq.values)
    for _ in range(order):
        values = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    return Sequence(seq.start_label, tuple(values), seq.mode)
