"""Example-sequence generators, partial sums, and file ingestion."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import EmptyInputError, IngestError, ModeUnsupportedError, SpecError
from .modes import FLOAT64, RATIONAL
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
        if self.family == "geometric":
            if self.z is None or self.z == 1:
                raise SpecError("geometric requires z != 1")
        if self.family == "exp_series" and self.z is None:
            raise SpecError("exp_series requires z")
        if self.family == "zeta":
            if self.s is None or self.s <= 1:
                raise SpecError("zeta requires s > 1")
        if self.family != "archimedes_pi" and self.start_label < first_label(self.family):
            raise SpecError(f"{self.family} starts at label >= {first_label(self.family)}")


def _term(spec, n, mode):
    """n-th term of the underlying series, at partial-sum label n."""
    if spec.family == "alt_harmonic":
        return mode.convert(Fraction((-1) ** (n - 1), n))
    if spec.family == "zeta2":
        return mode.convert(Fraction(1, n * n))
    if spec.family == "zeta":
        return mode.convert(Fraction(1, n**spec.s))
    if spec.family == "geometric":
        return mode.convert(Fraction(spec.z) ** n)
    if spec.family == "exp_series":
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        return mode.convert(Fraction(spec.z) ** n / fact)
    raise AssertionError(spec.family)


def generate(spec):
    """Build the sequence prefix plus its analytic limit where known.

    The limit is None when it is not representable in the active mode
    (e.g. any transcendental limit under RATIONAL).
    """
    mode = spec.mode
    if spec.family == "archimedes_pi":
        if mode.is_exact:
            raise ModeUnsupportedError("archimedes_pi values are irrational")
        with mode.context():
            pi = mode.pi()
            two = mode.convert(2)
            values = [
                two**n * mode.sin(pi / two**n)
                for n in range(spec.start_label, spec.start_label + spec.count)
            ]
            return Sequence(spec.start_label, tuple(values), mode), pi

    with mode.context():
        # prime the running sum with the terms below start_label
        total = mode.convert(0)
        for j in range(first_label(spec.family), spec.start_label):
            total = total + _term(spec, j, mode)
        values = []
        for n in range(spec.start_label, spec.start_label + spec.count):
            total = total + _term(spec, n, mode)
            values.append(total)
        limit = _known_limit(spec, mode)
    return Sequence(spec.start_label, tuple(values), mode), limit


def _known_limit(spec, mode):
    try:
        if spec.family == "alt_harmonic":
            return mode.log(mode.convert(2))
        if spec.family == "zeta2":
            pi = mode.pi()
            return pi * pi / 6
        if spec.family == "zeta":
            return mode.zeta(spec.s)
        if spec.family == "geometric":
            return mode.convert(Fraction(1) / (1 - Fraction(spec.z)))
        if spec.family == "exp_series":
            if spec.z == 0:
                return mode.convert(1)
            return mode.exp(mode.convert(Fraction(spec.z)))
    except ModeUnsupportedError:
        return None
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
    header; ``column`` selects the value column by header name or index;
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
            except ValueError as exc:
                raise IngestError(f"{path}:{i}: cannot parse {stripped!r}") from exc
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
    if not _is_number(rows[0][0]):
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
        except (ValueError, IndexError) as exc:
            raise IngestError(f"{path}:{i}: cannot parse row {row!r}") from exc
    if labels:
        if labels != list(range(labels[0], labels[0] + len(labels))):
            raise IngestError(f"{path}: label column must be consecutive integers")
        first = labels[0]
    else:
        first = 0
    if start_label is not None:
        first = start_label
    return Sequence(first, tuple(values), mode)


def _is_number(text):
    try:
        RATIONAL.parse(text)
        return True
    except ValueError:
        return False


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
