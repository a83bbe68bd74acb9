"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Every workload has the same shape:

* ``setup()`` makes the op's inputs from the seed.  This is part of the
  measured set-up time.
* ``prepare_reference()`` computes what ``check`` compares against.  It
  is benchmark overhead and is not timed.
* ``op(tr, i)`` is the timed unit of work; it returns the outputs and
  wraps each call into seqaccel in a span of ``tr``.
* ``check(out)`` raises CheckFailed when an output is wrong.
* ``cells(out)`` is the work the op completed, for ``cells_per_s``.
* ``counts(out)`` are per-layer counts for the traced run.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath

import reference
from seqaccel import (
    RATIONAL,
    BigFloat,
    GeneratorSpec,
    Sequence,
    Status,
    check_bilinear,
    cli,
    epsilon_transform,
    error_table,
    generate,
    ingest,
    lbq_transform,
    molecule_solution,
    t_determinant,
)
from seqaccel.formatting import format_fixed

ROOT = Path(__file__).resolve().parent.parent
DIGITS = 10  # the transform command's default --digits
FLOAT64_THRESHOLD = 1e-12  # seqaccel's default float64 breakdown threshold
FLOAT64_TOL = 1e-9  # relative slack for a reordered but equivalent float kernel


class CheckFailed(Exception):
    """An op's output disagrees with the reference."""


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def check_table(table, ref_cols, start, tol):
    """Statuses of every cell equal the reference's; VALID values agree to ``tol``."""
    require(len(table.entries) == sum(map(len, ref_cols)), "table cell count")
    for (k, n), entry in table.entries.items():
        col = ref_cols[k] if 0 <= k < len(ref_cols) else ()
        i = n - start
        require(0 <= i < len(col), f"cell ({k}, {n}) outside the reference")
        want = col[i]
        if want is None:
            require(entry.status is Status.BREAKDOWN, f"cell ({k}, {n}) should be BREAKDOWN")
        else:
            require(entry.status is Status.VALID, f"cell ({k}, {n}) should be VALID")
            require(abs(entry.value - want) <= tol * abs(want), f"cell ({k}, {n}) value")


def status_counts(prefix, table):
    valid = sum(1 for e in table.entries.values() if e.status is Status.VALID)
    breakdown = sum(1 for e in table.entries.values() if e.status is Status.BREAKDOWN)
    return {f"{prefix}.cells": len(table.entries), f"{prefix}.valid": valid,
            f"{prefix}.breakdown": breakdown}


@dataclass
class TablesOutput:
    seq: Sequence
    limit: object
    tables: tuple  # (lattice, epsilon)
    errors: tuple = None  # error_table of each, when the limit is known
    text: tuple = None  # {(k, n): formatted value} of each table's VALID cells


class FloatTables:
    """Lattice and epsilon at (n, k) in float64, then formatting of every VALID cell."""

    limit_known = False

    def __init__(self, seed, workdir, n=1000, k=50):
        self.seed, self.workdir, self.n, self.k = seed, Path(workdir), n, k

    def prepare_reference(self):
        self.ref_cols = (
            reference.lattice_columns(self.ref_values, self.start, self.k, float,
                                      FLOAT64_THRESHOLD),
            reference.epsilon_columns(self.ref_values, self.k, float, FLOAT64_THRESHOLD),
        )

    def op(self, tr, i):
        seq, limit = self.load(tr)
        with tr.span("lbq.transform"):
            lattice = lbq_transform(seq, self.k)
        with tr.span("epsilon.transform"):
            eps = epsilon_transform(seq, self.k)
        tables = (lattice, eps)
        errors = None
        if self.limit_known:
            with tr.span("analysis.error_table"):
                errors = tuple(error_table(t, limit) for t in tables)
        with tr.span("formatting.format"):
            text = tuple(
                {key: format_fixed(e.value, DIGITS) for key, e in t.entries.items() if e.ok}
                for t in tables
            )
        return TablesOutput(seq, limit, tables, errors, text)

    def check(self, out):
        require(out.seq.start_label == self.start and out.seq.values == self.ref_values,
                "input sequence")
        for table, ref_cols in zip(out.tables, self.ref_cols):
            check_table(table, ref_cols, self.start, FLOAT64_TOL)
        if self.limit_known:
            require(abs(out.limit - self.ref_limit) <= FLOAT64_TOL * abs(self.ref_limit), "limit")
            for table, errors in zip(out.tables, out.errors):
                require(errors.keys() == table.entries.keys(), "error table cells")
                for key, e in table.entries.items():
                    got = errors[key]
                    if e.ok:
                        want = abs(e.value - self.ref_limit)
                        require(abs(got - want) <= FLOAT64_TOL * abs(self.ref_limit),
                                f"error at {key}")
                    else:
                        require(got is e.status, f"error-table status at {key}")
        for table, text in zip(out.tables, out.text):
            valid = [(key, e.value) for key, e in table.entries.items() if e.ok]
            require(len(text) == len(valid), "formatted cell count")
            for key, value in valid:
                require(text.get(key) == reference.fixed(value, DIGITS), f"formatted {key}")

    def cells(self, out):
        return sum(len(t.entries) for t in out.tables)

    def counts(self, out):
        c = {"seqgen.values": len(out.seq), "formatting.cells": sum(map(len, out.text))}
        c.update(status_counts("lbq", out.tables[0]))
        c.update(status_counts("epsilon", out.tables[1]))
        return c


class F64Linear(FloatTables):
    """alt_harmonic, a linearly convergent family: ~93% of the cells break down."""

    name = "f64_linear"
    limit_known = True

    def setup(self):
        self.start = 1 + random.Random(self.seed).randrange(16)
        self.spec = GeneratorSpec("alt_harmonic", self.n, self.start)

    def prepare_reference(self):
        total, values = 0.0, []
        for j in range(1, self.start + self.n):
            total += (-1) ** (j - 1) / j
            if j >= self.start:
                values.append(total)
        self.ref_values = tuple(values)
        self.ref_limit = math.log(2)
        super().prepare_reference()

    def load(self, tr):
        with tr.span("seqgen.generate"):
            return generate(self.spec)


class F64Valid(FloatTables):
    """Jittered partial sums of 1/n^1.5 read from CSV: every cell is VALID."""

    name = "f64_valid"

    def setup(self):
        rng = random.Random(self.seed)
        total, values = 0.0, []
        for n in range(1, self.n + 1):
            total += (1 + 0.2 * (rng.random() - 0.5)) / n**1.5
            values.append(total)
        self.start = 1
        self.ref_values = tuple(values)
        self.path = self.workdir / f"f64_valid-seed{self.seed}.csv"
        self.path.write_text(
            "n,S\n" + "".join(f"{n},{v!r}\n" for n, v in enumerate(values, 1)),
            encoding="utf-8",
        )

    def load(self, tr):
        with tr.span("seqgen.ingest"):
            return ingest(self.path, "csv"), None


@dataclass
class PaperOutput:
    printed: list  # (exit code, stdout) of each paper table
    tables: TablesOutput


class BigfloatPaper:
    """The paper's three tables through the CLI, plus a seeded 256-bit lattice run."""

    name = "bigfloat_paper"
    bits = 256
    # (argv, reference table name); the tables' shapes are the paper's
    PAPER = (
        (["--family", "archimedes_pi", "--count", "13", "--k-max", "4",
          "--col-digits", "5,10,10,10,10"], "TABLE_PI"),
        (["--family", "alt_harmonic", "--count", "18", "--k-max", "5",
          "--col-digits", "5,5,5,10,10,10"], "TABLE_LN2"),
        (["--family", "zeta2", "--count", "26", "--k-max", "7", "--digits", "5"],
         "TABLE_ZETA2"),
    )

    def __init__(self, seed, workdir, n=300, k=30):
        self.seed, self.n, self.k = seed, n, k

    def setup(self):
        self.mode = BigFloat(self.bits)
        self.start = 1 + random.Random(self.seed).randrange(16)
        self.spec = GeneratorSpec("alt_harmonic", self.n, self.start, self.mode)
        self.argvs = [
            ["transform", *argv, "--mode", "bigfloat", "--precision-bits", str(self.bits)]
            for argv, _ in self.PAPER
        ]

    def prepare_reference(self):
        spec = importlib.util.spec_from_file_location(
            "reference_tables", ROOT / "tests" / "reference_tables.py")
        tables = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tables)
        self.paper_refs = [dict(getattr(tables, name)) for _, name in self.PAPER]
        threshold = self.mode.default_breakdown_threshold
        with mpmath.workprec(self.bits):
            # The paper's zeta(2) columns k = 6, 7 carry float64 roundoff (they
            # differ from the exact transform by up to 5e-4; the acceptance test
            # matches them only in float64), so at 256 bits those cells are
            # checked against the reference lattice instead.
            total, zeta2 = mpmath.mpf(0), []
            for j in range(1, 27):
                total = total + mpmath.mpf(1) / (j * j)
                zeta2.append(total)
            cols = reference.lattice_columns(zeta2, 1, 7, mpmath.mpf, threshold)
            for k, n in self.paper_refs[2]:
                if k >= 6:
                    self.paper_refs[2][(k, n)] = f"{float(cols[k][n - 1]):.5f}"
            total, values = mpmath.mpf(0), []
            for j in range(1, self.start + self.n):
                total = total + mpmath.mpf((-1) ** (j - 1)) / j
                if j >= self.start:
                    values.append(total)
            self.ref_values = tuple(values)
            self.ref_cols = (
                reference.lattice_columns(values, self.start, self.k, mpmath.mpf, threshold),
                reference.epsilon_columns(values, self.k, mpmath.mpf, threshold),
            )
        self.tol = mpmath.mpf(2) ** (-self.bits // 2)

    def op(self, tr, i):
        printed = []
        for argv in self.argvs:
            buf = io.StringIO()
            with tr.span("cli.main"), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            printed.append((code, buf.getvalue()))
        with tr.span("seqgen.generate"):
            seq, limit = generate(self.spec)
        with tr.span("lbq.transform"):
            lattice = lbq_transform(seq, self.k)
        with tr.span("epsilon.transform"):
            eps = epsilon_transform(seq, self.k)
        return PaperOutput(printed, TablesOutput(seq, limit, (lattice, eps)))

    def check(self, out):
        for (code, text), ref in zip(out.printed, self.paper_refs):
            require(code == 0, "cli exit status")
            cells = reference.markdown_cells(text)
            for key, want in ref.items():
                require(reference.within_last_digit(cells.get(key, ""), want),
                        f"paper cell {key}")
        tables = out.tables
        with mpmath.workprec(self.bits):
            require(tables.seq.start_label == self.start
                    and tables.seq.values == self.ref_values, "input sequence")
            for table, ref_cols in zip(tables.tables, self.ref_cols):
                check_table(table, ref_cols, self.start, self.tol)

    def cells(self, out):
        return sum(len(t.entries) for t in out.tables.tables)

    def counts(self, out):
        c = {"seqgen.values": len(out.tables.seq)}
        c.update(status_counts("lbq", out.tables.tables[0]))
        c.update(status_counts("epsilon", out.tables.tables[1]))
        return c


@dataclass
class VerifyOutput:
    lattices: list
    routes: list  # (k, n, lattice value, determinant value, molecule ratio)
    bilinear: list  # one BilinearReport per sequence


def random_rational_sequence(rng, length, start_label):
    values = [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(length)]
    return Sequence(start_label, tuple(values), RATIONAL)


class RationalVerify:
    """Exact route check (acceptance criterion 4) and bilinear check (criterion 5).

    Every op takes the same seeded batch of sequences through both checks,
    so that every op does the same work.
    """

    name = "rational_verify"

    def __init__(self, seed, workdir, count=8):
        self.seed, self.count = seed, count

    def setup(self):
        rng = random.Random(self.seed)
        self.route_seqs = [random_rational_sequence(rng, 12, rng.randint(0, 2))
                           for _ in range(self.count)]
        self.bilinear_seqs = [random_rational_sequence(rng, 14, 0) for _ in range(self.count)]

    def prepare_reference(self):
        pass  # the three routes and the residuals check each other

    def op(self, tr, i):
        lattices, routes, reports = [], [], []
        for seq, bilinear_seq in zip(self.route_seqs, self.bilinear_seqs):
            with tr.span("lbq.transform"):
                lattice = lbq_transform(seq, 3)
            with tr.span("oracle.molecule_solution"):
                mol = molecule_solution(seq, 12)
            for k in range(1, 4):
                for n in seq.labels():
                    entry = lattice.get(k, n)
                    if not entry.ok:
                        continue
                    with tr.span("oracle.t_determinant"):
                        det = t_determinant(seq, k, n)
                    routes.append((k, n, entry.value, det, mol.ratio(3 * k + 3, n)))
            with tr.span("oracle.check_bilinear"):
                reports.append(check_bilinear(bilinear_seq, 9))
            lattices.append(lattice)
        return VerifyOutput(lattices, routes, reports)

    def check(self, out):
        require(out.routes, "no route cell compared")
        for k, n, value, det, ratio in out.routes:
            require(value == det == ratio, f"routes differ at ({k}, {n})")
        for report in out.bilinear:
            require(report.checked > 0, "no bilinear cell checked")
            require(report.all_zero, "nonzero bilinear residual")

    def cells(self, out):
        return len(out.routes) + sum(r.checked for r in out.bilinear)

    def counts(self, out):
        c = defaultdict(int)
        for lattice in out.lattices:
            for name, value in status_counts("lbq", lattice).items():
                c[name] += value
        c["oracle.route_cells"] = c["oracle.t_determinant_calls"] = len(out.routes)
        c["oracle.bilinear_cells"] = sum(r.checked for r in out.bilinear)
        c["oracle.zero_f_cells"] = sum(len(r.zero_f_cells) for r in out.bilinear)
        return c


WORKLOADS = {w.name: w for w in (F64Linear, F64Valid, BigfloatPaper, RationalVerify)}
