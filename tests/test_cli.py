"""Command-line interface."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqaccel.cli import main
from seqaccel.formatting import format_exact, format_fixed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fraction_rounding(value, digits):
    """``value`` to ``digits`` places: its exact Fraction, rounded half to even."""
    exact = Fraction(float(value)) if isinstance(value, mpmath.mpf) else Fraction(value)
    rounded = round(exact * 10**digits)
    sign = "-" if rounded < 0 else ""
    whole, frac = divmod(abs(rounded), 10**digits)
    return f"{sign}{whole}" + (f".{frac:0{digits}d}" if digits else "")


class TestFormatting:
    def test_round_half_to_even(self):
        from fractions import Fraction

        assert format_fixed(Fraction(25, 1000), 2) == "0.02"
        assert format_fixed(Fraction(35, 1000), 2) == "0.04"
        assert format_fixed(Fraction(-25, 1000), 2) == "-0.02"
        assert format_fixed(2.0, 5) == "2.00000"

    def test_exact_rendering(self):
        from fractions import Fraction

        assert format_exact(Fraction(7, 4)) == "1.75"
        assert format_exact(Fraction(1, 3)) == "1/3"
        assert format_exact(0.5) == "0.5"

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-1e-300, 1e-300),
                    st.fractions(max_denominator=10**6),
                    st.floats(-1e6, 1e6).map(mpmath.mpf),
                ),
                st.integers(0, 20),
            ),
            # odd / 2^(d+1) is an exact float whose d-digit rounding is a tie
            st.tuples(st.integers(-10**6, 10**6), st.integers(0, 20)).map(
                lambda t: ((2 * t[0] + 1) / 2 ** (t[1] + 1), t[1])),
        ),
    )
    def test_matches_fraction_rounding(self, case):
        value, digits = case
        assert format_fixed(value, digits) == fraction_rounding(value, digits)

    @pytest.mark.parametrize("value, digits, want", [
        (-0.0, 0, "0"),
        (-0.0, 3, "0.000"),
        (-4e-4, 3, "0.000"),  # a negative that rounds to zero has no sign
        (-0.0005, 3, "-0.001"),  # the float is just below -0.0005
        (-1e-300, 20, "0.00000000000000000000"),
        (5e-324, 20, "0.00000000000000000000"),  # the smallest subnormal
        (-2.5e-310, 0, "0"),
        (0.125, 2, "0.12"),  # exact tie, half to even
        (-0.375, 2, "-0.38"),
        (1e300, 2, None),
        (-1.7976931348623157e308, 20, None),
        (1 / 3, 20, "0.33333333333333331483"),
    ])
    def test_float_edge_cases(self, value, digits, want):
        got = format_fixed(value, digits)
        assert got == fraction_rounding(value, digits)
        if want is not None:
            assert got == want

    @pytest.mark.parametrize("value, error", [
        (math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError)])
    def test_non_finite_float_raises(self, value, error):
        with pytest.raises(error):
            format_fixed(value, 5)


class TestTransform:
    def test_pi_table_cells(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--family", "archimedes_pi", "--count", "13",
            "--k-max", "4", "--mode", "bigfloat", "--output-format", "csv",
            "--col-digits", "5,10,10,10,10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,T0,T1,T2,T3,T4"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "2.00000"
        assert first[2] == "3.1679051916"
        assert first[5] == "3.1415926536"
        # below the computable window the cells are blank
        assert lines[5].split(",")[5] == ""

    def test_breakdown_rendered_as_brk(self, capsys, tmp_path):
        p = tmp_path / "const.txt"
        p.write_text("1.0\n1.0\n1.0\n1.0\n1.0\n")
        code, out, _ = run(
            capsys, "transform", "--input", str(p), "--k-max", "1",
            "--output-format", "csv", "--digits", "5",
        )
        assert code == 0
        assert "BRK" in out

    def test_epsilon_algorithm(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--family", "alt_harmonic", "--count", "10",
            "--algorithm", "epsilon", "--k-max", "2", "--mode", "rational",
            "--output-format", "tsv", "--digits", "6",
        )
        assert code == 0
        assert out.splitlines()[1].split("\t")[1] == "1.000000"

    def test_oracle_algorithm_agrees_with_lbq(self, capsys):
        args = ["--family", "zeta2", "--count", "10", "--k-max", "2",
                "--mode", "rational", "--output-format", "csv", "--digits", "8"]
        code, out_lbq, _ = run(capsys, "transform", "--algorithm", "lbq", *args)
        assert code == 0
        code, out_det, _ = run(capsys, "transform", "--algorithm", "oracle", *args)
        assert code == 0
        assert out_lbq == out_det

    def test_markdown_output(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--family", "zeta2", "--count", "8",
            "--k-max", "1", "--digits", "5",
        )
        assert code == 0
        assert out.startswith("| n | T0 | T1 |")


class TestGenerateAndRoundTrip:
    def test_lines_round_trip_preserves_table(self, capsys, tmp_path):
        target = tmp_path / "geo.txt"
        code, _, _ = run(
            capsys, "generate", "--family", "geometric", "--z", "1/2",
            "--count", "12", "--mode", "rational", "--out", str(target),
        )
        assert code == 0
        table_args = ["--k-max", "2", "--mode", "rational",
                      "--output-format", "csv", "--digits", "12"]
        code, direct, _ = run(
            capsys, "transform", "--family", "geometric", "--z", "1/2",
            "--count", "12", *table_args,
        )
        assert code == 0
        code, ingested, _ = run(
            capsys, "transform", "--input", str(target), *table_args,
        )
        assert code == 0
        assert direct == ingested

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "alt_harmonic", "--count", "3",
            "--mode", "rational", "--output-format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,S"
        assert out.splitlines()[1] == "1,1"


class TestClassify:
    def test_classify_zeta2(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--family", "zeta2", "--count", "60",
        )
        assert code == 0
        assert "logarithmic" in out

    def test_classify_alternating(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--family", "alt_harmonic", "--count", "40",
        )
        assert code == 0
        assert "alternating" in out


class TestCompare:
    def test_error_columns(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--family", "alt_harmonic", "--count", "12",
            "--k-max", "1", "--output-format", "csv", "--digits", "8",
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == ["n", "lbq_T0_err", "eps_T0_err", "lbq_T1_err", "eps_T1_err"]

    def test_compare_without_limit_fails(self, capsys, tmp_path):
        p = tmp_path / "seq.txt"
        p.write_text("1.0\n0.5\n0.25\n")
        code, _, err = run(capsys, "compare", "--input", str(p))
        assert code == 1
        assert "limit" in err


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--trials", "3", "--k-max", "6", "--seed", "7",
        )
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "FAIL" not in out

    def test_verify_fails_on_route_mismatch(self, capsys, monkeypatch):
        from seqaccel import oracle

        t_value = oracle._t_value
        monkeypatch.setattr(oracle, "_t_value",
                            lambda seq, diffs, k, n: t_value(seq, diffs, k, n) + 1)
        code, out, _ = run(capsys, "verify", "--trials", "1", "--k-max", "3", "--seed", "7")
        assert code == 1
        assert "route equivalence" in out and "FAIL" in out
        assert out.strip().endswith("FAIL (1 checks)")

    def test_verify_deterministic(self, capsys):
        argv = ["verify", "--trials", "2", "--k-max", "5", "--seed", "42"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)


class TestErrors:
    def test_missing_input_source(self, capsys):
        code, _, err = run(capsys, "transform", "--k-max", "2")
        assert code == 1
        assert "family" in err or "input" in err

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--no-such-flag"])
        assert exc.value.code == 2

    def test_unparseable_file_exits_1(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("hello\n")
        code, _, err = run(capsys, "transform", "--input", str(p))
        assert code == 1
        assert "bad.txt" in err

    def test_float64_overflow_is_a_clean_error(self, capsys, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text("1.0\n1e400\n")
        code, _, err = run(capsys, "transform", "--input", str(p), "--k-max", "1")
        assert code == 1
        assert err.startswith("error: ") and "big.txt:2" in err
        code, _, err = run(capsys, "compare", "--family", "alt_harmonic", "--count", "8",
                           "--limit", "1e400")
        assert code == 1
        assert err.startswith("error: ") and "1e400" in err

    @pytest.mark.parametrize("argv, message", [
        (("--breakdown-threshold", "-1"), "breakdown threshold -1.0 is negative"),
        (("--mode", "rational", "--breakdown-threshold", "1000"),
         "breakdown threshold 1000 has no effect in rational mode"),
        (("--algorithm", "oracle", "--breakdown-threshold", "1e-9"),
         "--breakdown-threshold does not apply to --algorithm oracle"),
    ], ids=["negative", "exact_mode", "oracle"])
    def test_threshold_the_run_cannot_honour_is_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "transform", "--family", "alt_harmonic", "--count", "8",
                             "--k-max", "1", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")

    def test_float64_threshold_overflow_is_a_clean_error(self, capsys):
        code, out, err = run(capsys, "transform", "--family", "alt_harmonic", "--count", "8",
                             "--breakdown-threshold", "1e400")
        assert code == 1 and out == ""
        assert err == "error: ~1e400 is beyond the float64 range\n"
