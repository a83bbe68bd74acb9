"""Example-sequence generators, partial sums, and file ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from .errors import (EmptyInputError, IngestError, ModeUnsupportedError, NonFiniteError,
                     SeqAccelError, SpecError)
from .modes import FLOAT64, RATIONAL, excerpt, is_literal
from .sequences import Sequence

FAMILIES = ("archimedes_pi", "alt_harmonic", "zeta2", "geometric", "exp_series", "zeta")


def first_label(family):
    """Label of the family's first term: 0 for the power series, else 1."""
    return 0 if family in ("geometric", "exp_series") else 1


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    count: int
    start_label: int = 1
    mode: object = FLOAT64
    z: object = None  # geometric / exp_series argument
    s: object = None  # zeta exponent

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(f"unknown family {self.family!r}")
        if self.count < 1:
            raise SpecError("count must be >= 1")
        if self.family in ("geometric", "exp_series"):
            try:
                z = Fraction(self.z)
            except (TypeError, ValueError, OverflowError):  # None, NaN, infinite or not a number
                raise SpecError(f"{self.family} requires z, a finite int, Fraction or float, "
                                f"got {self.z!r}") from None
            if self.family == "geometric" and z == 1:
                raise SpecError("geometric requires z != 1")
        if self.family == "zeta" and not (isinstance(self.s, int) and self.s > 1):
            raise SpecError(f"zeta requires s, an int > 1, got {self.s!r}")
        if self.family != "archimedes_pi" and self.start_label < first_label(self.family):
            raise SpecError(f"{self.family} starts at label >= {first_label(self.family)}")


def _terms(spec, stop):
    """The exact terms of the underlying series at partial-sum labels first_label .. stop - 1.

    A power series' terms are a running product, z^n / n! = z^(n-1) / (n-1)! · z / n
    (or z^n = z^(n-1) · z), so each costs O(1) Fraction operations.
    """
    labels = range(first_label(spec.family), stop)
    if spec.family == "alt_harmonic":
        return (Fraction((-1) ** (n - 1), n) for n in labels)
    if spec.family == "zeta2":
        return (Fraction(1, n * n) for n in labels)
    if spec.family == "zeta":
        return (Fraction(1, n**spec.s) for n in labels)
    z = Fraction(spec.z)
    if spec.family == "geometric":
        return accumulate(labels[1:], lambda t, _: t * z, initial=Fraction(1))
    return accumulate(labels[1:], lambda t, n: t * z / n, initial=Fraction(1))


def generate(spec):
    """Build the sequence prefix plus its analytic limit where known.

    Every value and the limit are the mode's own numbers.  A bigfloat one
    is computed in the mode's mpmath context, at its precision, and a
    float64 zeta(s) limit in a fixed 53-bit context, whatever mpmath's
    global precision.  The limit is None when it is not representable in
    the active mode (any transcendental limit under RATIONAL, or one
    beyond the float64 range).  ``archimedes_pi`` starts at label 1 or
    above: at a label n <= 0, 2^n sin(pi / 2^n) is 0 and every value is
    rounding noise, so such a start is a :class:`SpecError`.  In float64
    a label above 1023 or below -1022, where 2^n or pi / 2^n leaves the
    float range, is a :class:`NonFiniteError` that names it; that check
    comes first.
    """
    mode = spec.mode
    labels = range(spec.start_label, spec.start_label + spec.count)
    if spec.family == "archimedes_pi":
        if mode.is_exact:
            raise ModeUnsupportedError("archimedes_pi values are irrational")
        functions = _functions(mode)
        pi = +functions.pi  # unary + rounds mpmath's pi to the context's precision
        two = mode.convert(2)
        values = []
        for n in labels:
            try:
                values.append(two**n * functions.sin(pi / two**n))
            except (OverflowError, ValueError, ZeroDivisionError):  # float 2**n or pi / 2**n
                raise NonFiniteError(f"archimedes_pi label {n} is beyond the float64 range") from None
        if spec.start_label < 1:
            raise SpecError(f"archimedes_pi from start label {spec.start_label}: at labels <= 0, "
                            "2^n sin(pi/2^n) is 0 and every value is rounding noise")
        return Sequence(spec.start_label, tuple(values), mode), pi

    # the running sum adds every term from the family's first label, in
    # order, and keeps the sums from start_label on
    total = mode.convert(0)
    values = []
    for n, term in enumerate(_terms(spec, labels.stop), first_label(spec.family)):
        total = total + mode.convert(term)
        if n >= spec.start_label:
            values.append(total)
    return Sequence(spec.start_label, tuple(values), mode), _known_limit(spec, mode)


def _functions(mode):
    """What a float ``mode`` computes pi, sin, log and exp with: math, or the mode's mpmath context."""
    return math if mode.value_type is float else mode.mp


def _known_limit(spec, mode):
    """The family's limit in ``mode``, or None where the mode cannot hold it."""
    if spec.family == "geometric":
        try:
            return mode.convert(1 / (1 - Fraction(spec.z)))
        except NonFiniteError:  # beyond the float64 range
            return None
    if spec.family == "exp_series" and Fraction(spec.z) == 0:
        return mode.convert(1)
    if mode.is_exact:  # every other limit is transcendental
        return None
    functions = _functions(mode)
    if spec.family == "alt_harmonic":
        return functions.log(mode.convert(2))
    if spec.family == "zeta2":
        pi = +functions.pi
        return pi * pi / 6
    if spec.family == "zeta":
        return mode.convert(mode.mp.zeta(spec.s))
    try:
        return functions.exp(mode.convert(Fraction(spec.z)))
    except OverflowError:  # e**z beyond the float64 range
        return None


def partial_sums(terms):
    """Running sums of a term sequence, keeping the start label."""
    if len(terms) == 0:
        raise EmptyInputError("no terms")
    out = []
    total = terms.mode.convert(0)
    for v in terms:
        total = total + v
        out.append(total)
    return Sequence(terms.start_label, tuple(out), terms.mode)


def ingest(path, fmt="lines", mode=FLOAT64, column=None, start_label=None):
    """Read a sequence from a text file.

    ``lines``: one decimal (or p/q) literal per line, ``#`` comments
    ignored; labels start at 0 unless overridden.  ``csv``: optional
    header, a first row none of whose cells is a number literal;
    ``column`` selects the value column by header name or index;
    a leading integer column named ``n`` (or selected implicitly when
    the file has two columns) supplies the labels.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if fmt == "lines":
        values = []
        for i, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                values.append(mode.parse(stripped))
            except SeqAccelError as exc:
                raise IngestError(f"{path}:{i}: cannot parse {excerpt(stripped)!r}") from exc
        if not values:
            raise IngestError(f"{path}: no values found")
        return Sequence(0 if start_label is None else start_label, tuple(values), mode)

    if fmt == "csv":
        return _ingest_csv(path, text, mode, column, start_label)
    raise SpecError(f"unknown ingest format {fmt!r}")


def _ingest_csv(path, text, mode, column, start_label):
    rows = list(csv.reader(text.splitlines()))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise IngestError(f"{path}: empty file")
    header = None
    if not any(map(is_literal, rows[0])):
        header = [h.strip() for h in rows[0]]
        rows = rows[1:]
        if not rows:
            raise IngestError(f"{path}: header but no data rows")
    label_idx = None
    if header and "n" in header:
        label_idx = header.index("n")
    if isinstance(column, str):
        if header is None or column not in header:
            raise IngestError(f"{path}: no column named {column!r}")
        value_idx = header.index(column)
    elif isinstance(column, int):
        value_idx = column
    elif label_idx is not None:
        value_idx = next(i for i in range(len(rows[0])) if i != label_idx)
    elif len(rows[0]) == 2 and all(_is_int(r[0]) for r in rows):
        label_idx, value_idx = 0, 1
    else:
        value_idx = 0
    values, labels = [], []
    for i, row in enumerate(rows, start=(2 if header else 1)):
        try:
            values.append(mode.parse(row[value_idx]))
            if label_idx is not None:
                labels.append(int(row[label_idx]))
        except (SeqAccelError, ValueError, IndexError) as exc:  # int() of the label raises ValueError
            raise IngestError(f"{path}:{i}: cannot parse row {list(map(excerpt, row))!r}") from exc
    if labels:
        if labels != list(range(labels[0], labels[0] + len(labels))):
            raise IngestError(f"{path}: label column must be consecutive integers")
        first = labels[0]
    else:
        first = 0
    if start_label is not None:
        first = start_label
    return Sequence(first, tuple(values), mode)


def _is_int(text):
    try:
        int(text.strip())
        return True
    except ValueError:
        return False


def random_rational_sequence(rng, length, start_label=0):
    """Random rationals num/den with num in [-20, 20], den in [1, 10], drawn in that order."""
    values = [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(length)]
    return Sequence(start_label, tuple(values), RATIONAL)
