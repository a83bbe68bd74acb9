"""Triangular transform tables with per-entry validity status.

The engines compute plain-list columns with ``None`` for a BREAKDOWN
cell (see :mod:`seqaccel.rhombus`) and build a table once, at the end,
with :meth:`TransformTable.from_columns`.  Every BREAKDOWN cell then
shares the one ``BREAKDOWN_ENTRY``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Status(enum.Enum):
    VALID = "valid"
    BREAKDOWN = "breakdown"
    UNAVAILABLE = "unavailable"


# slotted: a table holds one entry per VALID cell, so the entry size sets its memory
@dataclass(frozen=True, slots=True)
class TransformEntry:
    value: object = None
    status: Status = Status.VALID

    @classmethod
    def valid(cls, value):
        return cls(value, Status.VALID)

    @classmethod
    def breakdown(cls):
        return cls(None, Status.BREAKDOWN)

    @classmethod
    def unavailable(cls):
        return cls(None, Status.UNAVAILABLE)

    @property
    def ok(self):
        return self.status is Status.VALID


UNAVAILABLE_ENTRY = TransformEntry.unavailable()
BREAKDOWN_ENTRY = TransformEntry.breakdown()


def column_entries(column, start_label):
    """{label: entry} of a plain-list column; ``None`` marks BREAKDOWN."""
    return {
        n: BREAKDOWN_ENTRY if v is None else TransformEntry(v)
        for n, v in enumerate(column, start_label)
    }


@dataclass
class TransformTable:
    """Doubly indexed transform outputs T_k^(n), 0 <= k <= max_order.

    ``window_step`` is the number of extra input elements each unit of
    order consumes (3 for the lattice transformation, 2 for the
    epsilon algorithm).
    """

    max_order: int
    start_label: int
    end_label: int
    window_step: int
    entries: dict = field(default_factory=dict)

    @classmethod
    def from_columns(cls, columns, start_label, end_label, window_step):
        """Table whose column k is the plain list ``columns[k]`` over the labels
        from ``start_label`` on; ``None`` marks BREAKDOWN."""
        entries = {
            (k, n): entry
            for k, column in enumerate(columns)
            for n, entry in column_entries(column, start_label).items()
        }
        return cls(len(columns) - 1, start_label, end_label, window_step, entries)

    def set(self, k, n, entry):
        self.entries[(k, n)] = entry

    def get(self, k, n):
        """Entry at (k, n); out-of-range indices yield UNAVAILABLE."""
        return self.entries.get((k, n), UNAVAILABLE_ENTRY)

    def rows(self):
        return range(self.start_label, self.end_label + 1)

    def column(self, k):
        """Valid (n, value) pairs of column k, in label order."""
        out = []
        for n in self.rows():
            e = self.get(k, n)
            if e.ok:
                out.append((n, e.value))
        return out
