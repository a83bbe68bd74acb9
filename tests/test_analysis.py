"""Convergence classification and error tables."""

from fractions import Fraction

import pytest

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    Classification,
    GeneratorSpec,
    NonFiniteError,
    Sequence,
    SpecError,
    Status,
    WindowError,
    epsilon_transform,
    error_table,
    estimate_rho,
    generate,
    lbq_transform,
)


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

    @pytest.mark.parametrize("delta", [-1, -1e-300, float("nan"), float("inf"), Fraction(-1, 2)])
    def test_delta_must_be_finite_and_nonnegative(self, delta):
        # a negative delta called a logarithmic sequence divergent, and a
        # NaN one called every sequence linear
        seq, limit = generate(GeneratorSpec("zeta2", 10, 1))
        with pytest.raises(SpecError, match="delta"):
            estimate_rho(seq, limit, delta)

    def test_ratio_beyond_the_float_range(self):
        # the remainder ratio 1/1e-400 lies beyond the float range; the spread
        # of the tail is taken in the mode, so rational reads it as bigfloat does
        values = [6, 5, 4, 3, 2, Fraction("1e-400"), 1, 7, 0]
        report = estimate_rho(seq_of(values, mode=RATIONAL), None)
        assert report.classification is Classification.INDETERMINATE
        assert report.rho_estimates[-1] == 10**400
        assert estimate_rho(seq_of(values, mode=BigFloat(128)), None).classification is report.classification

    def test_remainder_beyond_the_float_range(self):
        # each remainder S_n + 1e308 overflows; inf / inf would be a NaN ratio
        seq = seq_of([1.0, 1e308, 1.5e308, 1.7e308, 1.75e308], start=1)
        with pytest.raises(NonFiniteError, match=r"S_2 - S is beyond the float64 range"):
            estimate_rho(seq, -1e308)

    def test_zero_delta_is_accepted(self):
        seq, limit = generate(GeneratorSpec("zeta2", 60, 1))
        assert estimate_rho(seq, limit, 0).classification is Classification.LINEAR


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

    def test_error_beyond_the_float_range(self):
        # |T_k^(n) - S| overflows where T_k^(n) is near 1.7e308 and S = -1.7e308
        seq = seq_of([1.0, 1.7e308, 1.6e308, 1.65e308, 1.62e308], start=3)
        for transform in (lbq_transform, epsilon_transform):
            with pytest.raises(NonFiniteError, match=r"\|T_0\^\(4\) - S\| is beyond the float64 range"):
                error_table(transform(seq, 1), -1.7e308)

    def test_reference_cell(self):
        seq, limit = generate(GeneratorSpec("archimedes_pi", 13, 1, BigFloat(128)))
        table = lbq_transform(seq, 4)
        errs = error_table(table, limit)
        assert float(errs[(4, 1)]) <= 5e-11
