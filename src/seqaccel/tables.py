"""Triangular transform tables with per-entry validity status.

Every table is built once, at the end, by
:meth:`TransformTable.from_columns` from columns given as a plain-list
live prefix, with ``None`` for a BREAKDOWN cell, and the column's
nominal length: the lattice transform, its levels and the epsilon
baseline from the rhombus driver (see :mod:`seqaccel.rhombus`), whose
prefixes stop at the last VALID cell, and the determinant oracle from
one full list per order.  Every BREAKDOWN cell then shares the one
``BREAKDOWN_ENTRY``, and the cells past a prefix are filled in bulk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import repeat


class Status(enum.Enum):
    VALID = "valid"
    BREAKDOWN = "breakdown"
    UNAVAILABLE = "unavailable"


# Reading a member off an Enum class (Status.VALID) is a slow attribute
# lookup; the per-cell paths below read this module constant instead.
_VALID = Status.VALID


# slotted: a table holds one entry per VALID cell, so the entry size sets its memory
@dataclass(frozen=True, slots=True)
class TransformEntry:
    value: object = None
    status: Status = Status.VALID

    @classmethod
    def valid(cls, value):
        return cls(value, Status.VALID)

    @property
    def ok(self):
        return self.status is _VALID


UNAVAILABLE_ENTRY = TransformEntry(None, Status.UNAVAILABLE)
BREAKDOWN_ENTRY = TransformEntry(None, Status.BREAKDOWN)

_new = object.__new__
_set_value = TransformEntry.value.__set__
_set_status = TransformEntry.status.__set__


def _valid_entry(value):
    """``TransformEntry(value)``, filled through the slot descriptors.

    This skips the frozen dataclass's generated ``__init__``, which sets
    each field through ``object.__setattr__``: a table holds one entry
    per VALID cell, and this way costs about two thirds as much.
    """
    entry = _new(TransformEntry)
    _set_value(entry, value)
    _set_status(entry, _VALID)
    return entry


@dataclass
class TransformTable:
    """Cells keyed (k, n) over the labels start_label..end_label, in ``mode``.

    k is the transform order for T_k^(n), or the level for the lattice
    levels U_k^n of ``build_lattice``.
    """

    start_label: int
    end_label: int
    mode: object
    entries: dict = field(default_factory=dict)

    @classmethod
    def from_columns(cls, columns, seq):
        """Table of ``seq``'s labels and mode from ``columns[k] = (prefix, length)``:
        column k covers the ``length`` labels from ``seq.start_label`` on, its
        cells are the plain list ``prefix`` with ``None`` for BREAKDOWN, and
        the cells past the prefix are BREAKDOWN."""
        start_label = seq.start_label
        entries = {}
        for k, (prefix, length) in columns.items():
            entries.update({(k, n): BREAKDOWN_ENTRY if v is None else _valid_entry(v)
                            for n, v in enumerate(prefix, start_label)})
            tail = range(start_label + len(prefix), start_label + length)
            entries.update(zip(zip(repeat(k), tail), repeat(BREAKDOWN_ENTRY)))
        return cls(start_label, seq.end_label, seq.mode, entries)

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
