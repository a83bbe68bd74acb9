"""Finite sequence prefixes with explicit integer labels."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyInputError, IngestError, NonFiniteError, WindowError
from .modes import FLOAT64, value_text


@dataclass(frozen=True)
class Sequence:
    """A prefix {S_n0, ..., S_{n0+N}} of a sequence, in a single scalar mode.

    Lookup by label is exact: asking for an element outside the stored
    range raises :class:`WindowError` rather than extrapolating.  Every
    value must be finite in the mode (:class:`NonFiniteError` otherwise).
    Every value passes through ``mode.convert``, which returns a float in
    float64 and a Fraction in exact mode as it is, and rounds an mpf,
    which may carry more bits, once to the bigfloat precision.  So every
    engine sees the mode's own numbers, and exact mode's arithmetic stays
    exact.  A value the mode cannot read, such as ``"abc"``, is an
    :class:`IngestError`; a string it can read is converted like any
    other value, so a direct build equals :meth:`from_iterable`.
    """

    start_label: int
    values: tuple
    mode: object = FLOAT64

    def __post_init__(self):
        if len(self.values) == 0:
            raise EmptyInputError("sequence must contain at least one element")
        mode = self.mode
        convert, is_finite = mode.convert, mode.is_finite
        values = []
        for n, x in enumerate(self.values, self.start_label):
            try:
                v = convert(x)
                finite = is_finite(v)
            except NonFiniteError:  # beyond the mode's range, or NaN or infinite in exact mode
                finite = False
            except (TypeError, ValueError):  # not a number the mode can read, such as "abc"
                raise IngestError(
                    f"S_{n} = {value_text(x)} is not a number in {mode.name} mode") from None
            if not finite:
                raise NonFiniteError(f"S_{n} = {value_text(x)} is not finite in {mode.name} mode")
            values.append(v)
        object.__setattr__(self, "values", tuple(values))

    @classmethod
    def from_iterable(cls, items, start_label=0, mode=FLOAT64):
        return cls(start_label, tuple(items), mode)

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
        raise WindowError(f"difference order {order} must be nonnegative")
    if order > len(seq) - 1:
        raise WindowError(
            f"difference order {order} exceeds available length {len(seq)}"
        )
    values = list(seq.values)
    for _ in range(order):
        values = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    return Sequence(seq.start_label, tuple(values), seq.mode)
