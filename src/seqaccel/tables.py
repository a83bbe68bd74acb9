"""Triangular transform tables, stored as the columns that compute them.

A table holds ``columns = {k: (prefix, length)}``: column k covers the
``length`` labels from ``start_label`` on, ``prefix`` is the plain list
of its first cells with ``None`` for a BREAKDOWN cell, and the cells
past the prefix are BREAKDOWN.  These are the columns the rhombus driver
returns for the lattice, its levels and the epsilon baseline (see
:mod:`seqaccel.rhombus`), whose prefixes stop at the last VALID cell,
and the ones the determinant oracle builds, one full list per order.
:meth:`TransformTable.from_columns` stores them as they are, so building
a table makes no object per cell.

``TransformTable.entries`` is a read-through mapping view
{(k, n): TransformEntry} over the columns, in column order and label
order within a column.  A ``TransformEntry`` is made only when a VALID
cell is read; every BREAKDOWN cell reads as the one shared
``BREAKDOWN_ENTRY``.  An entry stores ``ok`` beside its value and
status, so reading it is a slot read.  Iterating ``values()`` or
``items()`` builds the VALID entries of one column at a time in bulk,
through C-level ``map``s over the slot descriptors, so no Python code
runs per VALID cell.  A reader of every cell's value by its (k, n) key,
such as the error table, takes :meth:`TransformTable.cells`, which reads
the columns without an entry per cell; the CLI prints the columns
themselves.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import ItemsView, MutableMapping, ValuesView
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import index, is_


class Status(enum.Enum):
    VALID = "valid"
    BREAKDOWN = "breakdown"
    UNAVAILABLE = "unavailable"


# Reading a member off an Enum class (Status.VALID) is a slow attribute
# lookup; an entry's stored ``ok`` and the bulk build read this module constant.
_VALID = Status.VALID


@dataclass(frozen=True, slots=True)
class TransformEntry:
    value: object = None
    status: Status = Status.VALID
    # stored, not a property: readers test it once per cell
    ok: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set_ok(self, self.status is _VALID)

    @classmethod
    def valid(cls, value):
        return cls(value, Status.VALID)


# the slot descriptors set a field of a frozen entry without its __setattr__
_set_value = TransformEntry.value.__set__
_set_status = TransformEntry.status.__set__
_set_ok = TransformEntry.ok.__set__

UNAVAILABLE_ENTRY = TransformEntry(None, Status.UNAVAILABLE)
BREAKDOWN_ENTRY = TransformEntry(None, Status.BREAKDOWN)


def _entry(value):
    """The entry of a prefix cell holding ``value``."""
    return BREAKDOWN_ENTRY if value is None else TransformEntry(value)


def _prefix_entries(prefix):
    """[_entry(v) for v in prefix], built without a Python call per VALID cell.

    Each cell gets a bare entry filled through the slot descriptors by
    C-level maps; only the ``None`` cells are then visited, to put the
    shared ``BREAKDOWN_ENTRY`` in their place.
    """
    entries = list(map(object.__new__, repeat(TransformEntry, len(prefix))))
    consume = deque(maxlen=0).extend
    consume(map(_set_value, entries, prefix))
    consume(map(_set_status, entries, repeat(_VALID)))
    consume(map(_set_ok, entries, repeat(True)))
    for i in compress(count(), map(is_, prefix, repeat(None))):
        entries[i] = BREAKDOWN_ENTRY
    return entries


def _read(prefix, i):
    """The entry of cell ``i`` of a column whose live prefix is ``prefix``."""
    return _entry(prefix[i]) if i < len(prefix) else BREAKDOWN_ENTRY


class TableEntries(MutableMapping):
    """{(k, n): TransformEntry} of every cell of ``table``, read through to its columns.

    Setting an entry writes its value, or ``None`` for BREAKDOWN, into
    the column's prefix.  A cell cannot be deleted: the table's shape is
    fixed by its columns.
    """

    __slots__ = ("_table",)

    def __init__(self, table):
        self._table = table

    def _locate(self, key):
        """(prefix, index) of the cell at ``key``; KeyError where the table has no such cell."""
        try:
            k, n = key
            cell = self._table._cell(k, n)
        except (TypeError, ValueError):
            cell = None
        if cell is None:
            raise KeyError(key)
        return cell

    def __getitem__(self, key):
        return _read(*self._locate(key))

    def __setitem__(self, key, entry):
        prefix, i = self._locate(key)
        if entry.status is Status.UNAVAILABLE:
            raise ValueError(f"cell {key} is in the table and cannot be UNAVAILABLE")
        prefix.extend(repeat(None, i + 1 - len(prefix)))
        prefix[i] = entry.value if entry.ok else None

    def __delitem__(self, key):
        raise TypeError("a table's cells cannot be deleted")

    def __iter__(self):
        start = self._table.start_label
        return chain.from_iterable(zip(repeat(k), range(start, start + length))
                                   for k, (_, length) in self._table.columns.items())

    def __len__(self):
        return sum(length for _, length in self._table.columns.values())

    def values(self):
        return _Values(self)

    def items(self):
        return _Items(self)


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        # one column's entries at a time, and the shared BREAKDOWN_ENTRY past the prefix
        return chain.from_iterable(
            chain(_prefix_entries(prefix), repeat(BREAKDOWN_ENTRY, length - len(prefix)))
            for prefix, length in self._mapping._table.columns.values())


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, _Values(self._mapping))


@dataclass
class TransformTable:
    """Cells (k, n) over the labels start_label..end_label, in ``mode``, as
    ``columns[k] = (prefix, length)`` (see the module docstring).

    k is the transform order for T_k^(n), or the level for the lattice
    levels U_k^n of ``build_lattice``.
    """

    start_label: int
    end_label: int
    mode: object
    columns: dict

    @classmethod
    def from_columns(cls, columns, seq):
        """Table of ``seq``'s labels and mode over ``columns[k] = (prefix, length)``,
        stored as it is."""
        return cls(seq.start_label, seq.end_label, seq.mode, columns)

    @property
    def entries(self):
        return TableEntries(self)

    def _cell(self, k, n):
        """(prefix, index) of the cell (k, n) in its column, or None where the table has none."""
        column = self.columns.get(k)
        i = index(n) - self.start_label
        return (column[0], i) if column is not None and 0 <= i < column[1] else None

    def get(self, k, n):
        """Entry at (k, n); out-of-range indices yield UNAVAILABLE."""
        cell = self._cell(k, n)
        return UNAVAILABLE_ENTRY if cell is None else _read(*cell)

    def column(self, k):
        """Valid (n, value) pairs of column k, in label order."""
        prefix, _ = self.columns.get(k, ((), 0))
        return [(n, v) for n, v in enumerate(prefix, self.start_label) if v is not None]

    def cells(self, read):
        """{(k, n): read(value)} for each VALID cell and ``Status.BREAKDOWN`` for
        each BREAKDOWN cell, in ``entries`` order."""
        start, breakdown, out = self.start_label, Status.BREAKDOWN, {}
        for k, (prefix, length) in self.columns.items():
            out.update({(k, n): breakdown if v is None else read(v)
                        for n, v in enumerate(prefix, start)})
            tail = range(start + len(prefix), start + length)
            out.update(zip(zip(repeat(k), tail), repeat(breakdown)))
        return out
