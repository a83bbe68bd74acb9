"""Convergence classification, acceleration ratios, error tables."""

import math
from fractions import Fraction

import pytest

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    Classification,
    GeneratorSpec,
    Sequence,
    Status,
    WindowError,
    acceleration_ratio,
    epsilon_transform,
    error_table,
    estimate_rho,
    generate,
    lbq_transform,
)
from seqaccel.analysis import EXACT


def seq_of(values, start=0, mode=FLOAT64):
    return Sequence.from_iterable(values, start, mode)


class TestEstimateRho:
    def test_geometric_is_linear(self):
        seq, limit = generate(
            GeneratorSpec("geometric", 20, 0, RATIONAL, z=Fraction(1, 2))
        )
        report = estimate_rho(seq, limit)
        assert report.classification is Classification.LINEAR
        assert report.rho == Fraction(1, 2)
        assert not report.negative_rho

    def test_zeta2_is_logarithmic(self):
        seq, limit = generate(GeneratorSpec("zeta2", 60, 1))
        report = estimate_rho(seq, limit)
        assert report.classification is Classification.LOGARITHMIC

    def test_exp_series_is_hyperlinear(self):
        # FLOAT64 remainders hit rounding noise before the ratio drops
        # below delta; 256-bit floats keep them meaningful to n = 30
        seq, limit = generate(GeneratorSpec("exp_series", 30, 0, BigFloat(256), z=1))
        report = estimate_rho(seq, limit)
        assert report.classification is Classification.HYPERLINEAR

    def test_alternating_is_linear_with_sign(self):
        seq, limit = generate(GeneratorSpec("alt_harmonic", 30, 1))
        report = estimate_rho(seq, limit)
        assert report.classification is Classification.LINEAR
        assert report.negative_rho
        assert "alternating" in report.describe()

    def test_divergent(self):
        seq = seq_of([2.0**n for n in range(12)])
        report = estimate_rho(seq, 0.0)
        assert report.classification is Classification.DIVERGENT

    def test_proxy_limit_drops_final_ratios(self):
        seq, _ = generate(GeneratorSpec("geometric", 20, 0, z=Fraction(1, 2)))
        report = estimate_rho(seq, None)
        assert report.limit_used is None
        assert len(report.rho_estimates) == len(seq) - 3

    def test_too_short(self):
        with pytest.raises(WindowError):
            estimate_rho(seq_of([1.0, 2.0]), 0.0)


class TestAccelerationRatio:
    def test_identity_transform_gives_ones(self):
        s = seq_of([1.0, 2.0, 3.0])
        assert acceleration_ratio(s, s, 10.0) == [1.0, 1.0, 1.0]

    def test_exact_transform_gives_zeros(self):
        s = seq_of([1.0, 2.0, 3.0])
        hit = seq_of([5.0, 5.0, 5.0])
        assert acceleration_ratio(hit, s, 5.0) == [0.0, 0.0, 0.0]

    def test_exact_original_flagged(self):
        s = seq_of([5.0, 6.0])
        t = seq_of([5.5, 5.5])
        out = acceleration_ratio(t, s, 5.0)
        assert out[0] is EXACT
        assert out[1] == pytest.approx(0.5)

    def test_pi_example_first_column_accelerates(self):
        seq, limit = generate(GeneratorSpec("archimedes_pi", 13, 1))
        table = lbq_transform(seq, 1)
        col1 = seq_of([v for _, v in table.column(1)], start=1)
        ratios = acceleration_ratio(col1, seq, limit)
        assert ratios[0] == pytest.approx(
            (3.1679051916 - math.pi) / (2.0 - math.pi), abs=1e-6
        )
        assert abs(ratios[0]) < 0.05
        assert all(abs(r) < 0.1 for r in ratios)


class TestErrorTable:
    def test_errors_and_markers(self):
        seq, limit = generate(GeneratorSpec("archimedes_pi", 13, 1))
        table = lbq_transform(seq, 4)
        errs = error_table(table, limit)
        for n in seq.labels():
            assert errs[(0, n)] == pytest.approx(abs(seq.at(n) - limit))
        # FLOAT64 runs out of precision near k = 4; those cells carry a
        # status marker instead of a number
        assert all(
            isinstance(v, Status) or v >= 0 for v in errs.values()
        )

    @pytest.mark.parametrize("mode", [FLOAT64, BigFloat(128), RATIONAL])
    def test_equals_its_per_cell_definition(self, mode):
        # alt_harmonic partial sums with a constant tail, which breaks down in every mode
        values = [Fraction(0)]
        for j in range(1, 60):
            values.append(values[-1] + Fraction((-1) ** (j - 1), j))
        seq = Sequence.from_iterable(values[1:] + values[-1:] * 8, 7, mode)
        limit = mode.convert(Fraction(7, 10))
        for table in (lbq_transform(seq, 12), epsilon_transform(seq, 12)):
            errs = error_table(table, limit)
            assert list(errs) == list(table.entries)
            assert any(v is Status.BREAKDOWN for v in errs.values())
            for key, entry in table.entries.items():
                got = errs[key]
                if entry.status is Status.VALID:
                    with mode.context():  # the table's errors are rounded at its precision
                        want = abs(entry.value - limit)
                    assert type(got) is type(want) and got == want, key
                else:
                    assert got is entry.status, key

    def test_rounded_at_the_table_precision_outside_any_context(self):
        # at mpmath's ambient 53 bits these errors would keep 53 of 256 bits
        mode = BigFloat(256)
        seq, limit = generate(GeneratorSpec("archimedes_pi", 13, 1, mode))
        table = lbq_transform(seq, 4)
        assert table.mode == mode
        errs = error_table(table, limit)
        with mode.context():
            want = error_table(table, limit)
            assert want == {key: abs(e.value - limit) if e.ok else e.status
                            for key, e in table.entries.items()}
        assert errs.keys() == want.keys()
        for key, got in errs.items():
            if isinstance(got, Status):
                assert got is want[key], key
            else:
                assert got._mpf_ == want[key]._mpf_, key
        assert max(v._mpf_[3] for v in errs.values() if not isinstance(v, Status)) > 200

    def test_reference_cell(self):
        seq, limit = generate(GeneratorSpec("archimedes_pi", 13, 1, BigFloat(128)))
        table = lbq_transform(seq, 4)
        errs = error_table(table, limit)
        assert float(errs[(4, 1)]) <= 5e-11
