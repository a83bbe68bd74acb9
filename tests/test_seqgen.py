"""Generators, partial sums, and file ingestion."""

import math
import re
from fractions import Fraction

import mpmath
import pytest

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    EmptyInputError,
    GeneratorSpec,
    IngestError,
    ModeUnsupportedError,
    NonFiniteError,
    Sequence,
    generate,
    ingest,
    SpecError,
    partial_sums,
)
from seqaccel.seqgen import first_label


class TestGenerate:
    def test_archimedes_first_element_and_limit(self):
        seq, limit = generate(GeneratorSpec("archimedes_pi", 5, 1))
        assert seq.at(1) == pytest.approx(2.0)
        assert limit == pytest.approx(math.pi)

    def test_archimedes_rational_unsupported(self):
        with pytest.raises(ModeUnsupportedError):
            generate(GeneratorSpec("archimedes_pi", 5, 1, RATIONAL))

    def test_alt_harmonic(self):
        seq, limit = generate(GeneratorSpec("alt_harmonic", 4, 1, RATIONAL))
        assert seq.at(2) == Fraction(1, 2)
        assert seq.at(3) == Fraction(5, 6)
        assert limit is None  # ln 2 is not rational

    def test_alt_harmonic_float_limit(self):
        _, limit = generate(GeneratorSpec("alt_harmonic", 4, 1))
        assert limit == pytest.approx(math.log(2))

    def test_zeta2(self):
        seq, limit = generate(GeneratorSpec("zeta2", 4, 1, RATIONAL))
        assert seq.at(3) == Fraction(49, 36)  # 1.36111...
        _, flimit = generate(GeneratorSpec("zeta2", 4, 1))
        assert flimit == pytest.approx(math.pi**2 / 6)

    def test_nonunit_start_label(self):
        whole, _ = generate(GeneratorSpec("zeta2", 6, 1, RATIONAL))
        tail, _ = generate(GeneratorSpec("zeta2", 3, 4, RATIONAL))
        for n in (4, 5, 6):
            assert tail.at(n) == whole.at(n)

    def test_geometric(self):
        seq, limit = generate(
            GeneratorSpec("geometric", 5, 0, RATIONAL, z=Fraction(1, 2))
        )
        assert seq.at(0) == 1
        assert seq.at(2) == Fraction(7, 4)
        assert limit == 2

    def test_exp_series(self):
        seq, limit = generate(GeneratorSpec("exp_series", 8, 0, z=1))
        assert seq.at(0) == 1.0
        assert seq.at(2) == pytest.approx(2.5)
        assert limit == pytest.approx(math.e)

    def test_zeta_family(self):
        seq, limit = generate(GeneratorSpec("zeta", 5, 1, s=3))
        assert seq.at(2) == pytest.approx(1.125)
        assert limit == pytest.approx(1.2020569031595943)

    def test_bigfloat_mode(self):
        mode = BigFloat(128)
        seq, limit = generate(GeneratorSpec("archimedes_pi", 3, 1, mode))
        assert abs(seq.at(1) - 2) < 1e-35

    def test_invalid_specs(self):
        with pytest.raises(SpecError):
            GeneratorSpec("nope", 5)
        with pytest.raises(SpecError):
            GeneratorSpec("zeta2", 0)
        with pytest.raises(SpecError):
            GeneratorSpec("geometric", 5, z=1)
        with pytest.raises(SpecError):
            GeneratorSpec("zeta", 5, s=1)
        # the term 1/n**s must be a Fraction, so s is an int
        for s in (2.5, Fraction(5, 2), 3.0, None):
            with pytest.raises(SpecError, match=f"^zeta requires s, an int > 1, got {re.escape(repr(s))}$"):
                GeneratorSpec("zeta", 5, s=s)
        # the terms and the limit read z as an exact Fraction
        for family in ("geometric", "exp_series"):
            for z in (math.nan, math.inf, -math.inf, mpmath.mpf(2), None):
                with pytest.raises(SpecError, match=f"^{family} requires z, a finite int"):
                    GeneratorSpec(family, 5, 0, z=z)

    def test_float64_limit_beyond_the_range_is_none(self):
        seq, limit = generate(GeneratorSpec("exp_series", 4, 0, z=710))
        assert seq.at(1) == 711.0 and limit is None
        _, limit = generate(GeneratorSpec("exp_series", 4, 0, z=709))
        assert limit == math.exp(709)
        _, limit = generate(GeneratorSpec("geometric", 4, 0, z=1 - Fraction(1, 10**400)))
        assert limit is None
        _, limit = generate(GeneratorSpec("exp_series", 4, 0, BigFloat(64), z=710))
        with mpmath.workprec(64):
            assert limit == mpmath.exp(710)

    @pytest.mark.parametrize("start, count, label", [
        (1024, 2, 1024), (1021, 5, 1024), (-1023, 3, -1023), (-1074, 1, -1074),
        (-1075, 1, -1075), (-1100, 4, -1100),
    ])
    def test_float64_archimedes_label_range(self, start, count, label):
        with pytest.raises(NonFiniteError, match=f"^archimedes_pi label {label} is beyond"):
            generate(GeneratorSpec("archimedes_pi", count, start))


    @pytest.mark.parametrize("family, extra", [
        ("alt_harmonic", {}), ("zeta2", {}), ("zeta", {"s": 3}),
        ("geometric", {"z": Fraction(1, 2)}), ("exp_series", {"z": Fraction(7, 5)}),
    ])
    def test_start_label_floor_is_the_first_label(self, family, extra):
        first = first_label(family)
        assert first == (0 if family in ("geometric", "exp_series") else 1)
        GeneratorSpec(family, 3, first, **extra)
        with pytest.raises(SpecError, match=f"^{family} starts at label >= {first}$"):
            GeneratorSpec(family, 3, first - 1, **extra)


class TestPartialSums:
    def test_running_sums(self):
        terms = Sequence.from_iterable([1, 1, 1], 0, RATIONAL)
        assert list(partial_sums(terms)) == [1, 2, 3]

    def test_matches_alt_harmonic(self):
        terms = Sequence.from_iterable(
            [Fraction(1), Fraction(-1, 2), Fraction(1, 3)], 1, RATIONAL
        )
        sums = partial_sums(terms)
        assert list(sums) == [1, Fraction(1, 2), Fraction(5, 6)]
        assert sums.start_label == 1
        generated, _ = generate(GeneratorSpec("alt_harmonic", 3, 1, RATIONAL))
        assert sums.values == generated.values

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            Sequence.from_iterable([], 0, RATIONAL)


class TestIngest:
    def test_lines(self, tmp_path):
        p = tmp_path / "seq.txt"
        p.write_text("# comment\n1.0\n0.5\n")
        seq = ingest(p, "lines", FLOAT64)
        assert seq.start_label == 0
        assert list(seq) == [1.0, 0.5]

    def test_lines_rational_exact(self, tmp_path):
        p = tmp_path / "seq.txt"
        p.write_text("0.1\n3/7\n")
        seq = ingest(p, "lines", RATIONAL)
        assert list(seq) == [Fraction(1, 10), Fraction(3, 7)]

    def test_lines_malformed_names_line(self, tmp_path):
        p = tmp_path / "seq.txt"
        p.write_text("1.0\nnot-a-number\n")
        with pytest.raises(IngestError, match=":2"):
            ingest(p, "lines", FLOAT64)

    @pytest.mark.parametrize("fmt, text, line", [
        ("lines", "1.0\n1e400\n", ":2"),
        ("csv", "n,S\n1,1.0\n2,-1e400\n", ":3"),
    ], ids=["lines", "csv"])
    def test_float64_overflow_names_line(self, tmp_path, fmt, text, line):
        p = tmp_path / "seq.txt"
        p.write_text(text)
        with pytest.raises(IngestError, match=line):
            ingest(p, fmt, FLOAT64)

    def test_lines_empty(self, tmp_path):
        p = tmp_path / "seq.txt"
        p.write_text("# only comments\n")
        with pytest.raises(IngestError):
            ingest(p, "lines", FLOAT64)

    def test_csv_with_header_and_labels(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("n,S\n1,2.0\n2,2.82843\n")
        seq = ingest(p, "csv", FLOAT64)
        assert seq.start_label == 1
        assert seq.at(2) == pytest.approx(2.82843)

    @pytest.mark.parametrize("text", ["1/0,0.5\n2,1\n", "1/0\n", "x,1\n0,2\n"],
                             ids=["zero_denominator", "one_column", "numeric_cell"])
    def test_csv_first_row_with_a_number_is_data(self, tmp_path, text):
        # a row is a header only when none of its cells is a number literal,
        # so a malformed first data row is reported, not dropped as a header
        p = tmp_path / "seq.csv"
        p.write_text(text)
        with pytest.raises(IngestError, match=":1: cannot parse"):
            ingest(p, "csv", FLOAT64)

    def test_csv_column_by_name(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("n,a,b\n0,9,1.5\n1,9,2.5\n")
        seq = ingest(p, "csv", FLOAT64, column="b")
        assert list(seq) == [1.5, 2.5]

    def test_csv_headerless_two_columns(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("3,1.0\n4,2.0\n")
        seq = ingest(p, "csv", FLOAT64)
        assert seq.start_label == 3
        assert list(seq) == [1.0, 2.0]

    def test_csv_nonconsecutive_labels_rejected(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("n,S\n1,1.0\n3,2.0\n")
        with pytest.raises(IngestError):
            ingest(p, "csv", FLOAT64)
