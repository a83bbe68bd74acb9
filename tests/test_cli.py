"""Command-line interface."""

import contextlib
import io
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqaccel import (
    RATIONAL,
    BigFloat,
    GeneratorSpec,
    SpecError,
    Status,
    epsilon_transform,
    error_table,
    generate,
    lbq_transform,
    seqgen,
)
from seqaccel import cli
from seqaccel.cli import main
from seqaccel.formatting import format_exact, format_fixed

# generator arguments each family needs besides --family and --count
FAMILY_ARGS = {"archimedes_pi": (), "alt_harmonic": (), "zeta2": (), "zeta": ("--s", "3"),
               "geometric": ("--z", "1/2"), "exp_series": ("--z", "7/5")}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@st.composite
def generator_args(draw):
    """Generator arguments for any family in any mode: --family with its --z or --s, --start,
    --count, --mode and --precision-bits.

    The partial-sum families start at small labels, since their set-up
    sums every term below the start.
    """
    family = draw(st.sampled_from(seqgen.FAMILIES))
    first = seqgen.first_label(family)
    start = draw(st.integers(-1100, 1100) if family == "archimedes_pi"
                 else st.integers(first, first + 8))
    args = ["--family", family, "--start", str(start), "--count", str(draw(st.integers(1, 6))),
            "--mode", draw(st.sampled_from(["float64", "bigfloat", "rational"])),
            "--precision-bits", str(draw(st.sampled_from([64, 128, 256])))]
    if family in ("geometric", "exp_series"):
        args += ["--z", f"{draw(st.integers(-10**4, 10**4))}/{draw(st.integers(1, 10**4))}"]
    if family == "zeta":
        args += ["--s", str(draw(st.integers(2, 60)))]
    return args


class Reformatted(float):
    """A float subclass with its own format(), which format_fixed must not use."""

    def __format__(self, spec):
        return "reformatted"


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

    def test_values_past_the_int_string_limit(self):
        # str() refuses an int of more than 4,300 digits; the exact forms print at any size
        big = 10**5000 + 1
        assert format_exact(Fraction(big, 3)) == "1" + "0" * 4999 + "1/3"
        assert format_exact(Fraction(-3, big)) == "-3/1" + "0" * 4999 + "1"
        assert format_exact(Fraction(big, 10**5000)) == "1." + "0" * 4999 + "1"
        assert format_exact(Fraction(10 * big + 5, 10)) == "1" + "0" * 4999 + "1.5"
        assert format_exact(Fraction(1, 5**6000)) == format_fixed(Fraction(2**6000, 10**6000), 6000)
        assert format_fixed(Fraction(-1, 3), 5000) == "-0." + "3" * 5000
        assert format_fixed(Fraction(big, 3), 1) == "3" * 5000 + ".7"
        assert format_fixed(Fraction(-big), 0) == "-1" + "0" * 4999 + "1"

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-1e-300, 1e-300),
                    st.fractions(max_denominator=10**6),
                    st.floats(-1e6, 1e6).map(mpmath.mpf),
                    st.floats(allow_nan=False, allow_infinity=False).map(Reformatted),
                    st.booleans(),
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

    @pytest.mark.parametrize("value", [1.25, Fraction(1, 3), 7, mpmath.mpf(2)])
    def test_negative_digits_raise(self, value):
        with pytest.raises(SpecError, match="digits must be >= 0, got -1"):
            format_fixed(value, -1)

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

    @pytest.mark.parametrize("family", seqgen.FAMILIES)
    def test_default_start_is_the_first_label(self, capsys, family):
        code, out, _ = run(capsys, "generate", "--family", family, "--count", "3",
                           "--output-format", "csv", *FAMILY_ARGS[family])
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == str(seqgen.first_label(family))

    def test_rational_values_past_the_int_string_limit(self, capsys):
        # the last of these partial sums has more than 4,300 digits above and below
        code, out, err = run(capsys, "generate", "--family", "exp_series", "--z", "7/5",
                             "--count", "1500", "--mode", "rational")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 1500
        p, q = lines[-1].split("/")
        assert min(len(p), len(q)) > 4300
        seq, _ = generate(GeneratorSpec("exp_series", 1500, 0, RATIONAL, z=Fraction(7, 5)))
        # Decimal reads and int() converts a Decimal at any size
        assert Fraction(int(Decimal(p)), int(Decimal(q))) == seq.values[-1]

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

    def test_limit_is_printed_at_the_mode_precision(self, capsys):
        argv = ("classify", "--family", "zeta2", "--count", "26")
        code, out, _ = run(capsys, *argv, "--mode", "bigfloat", "--precision-bits", "256")
        assert code == 0
        (line,) = [line for line in out.splitlines() if line.startswith("limit used: ")]
        digits = line.removeprefix("limit used: ").replace(".", "")
        assert digits.isdigit() and len(digits) >= 70
        with mpmath.workprec(256):
            assert abs(mpmath.mpf(line.removeprefix("limit used: ")) - mpmath.zeta(2)) < mpmath.mpf(10)**-70
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "limit used: 1.6449340668482264\n" in out

    @pytest.mark.parametrize("delta", ["-1", "nan", "inf"])
    def test_delta_that_is_negative_or_not_finite_is_rejected(self, capsys, delta):
        code, out, err = run(capsys, "classify", "--family", "zeta2", "--count", "10", "--delta", delta)
        assert code == 1 and out == ""
        assert err == f"error: delta must be a finite number >= 0, got {float(delta)}\n"

    @pytest.mark.parametrize("values, shown", [
        ("1e-400 1 2 3 0", "+inf, +2.000000"),
        ("-1e-400 1 2 3 0", "-inf, +2.000000"),
        ("6 5 4 3 2 1e-400 1 7 0", "+0.833333, +0.800000, +0.750000, +0.666667, +0.000000, +inf"),
    ])
    def test_rational_ratio_beyond_the_float_range_prints_as_in_bigfloat(self, capsys, tmp_path,
                                                                        values, shown):
        p = tmp_path / "ratios.txt"
        p.write_text(values.replace(" ", "\n") + "\n")
        outputs = []
        for mode in ("rational", "bigfloat"):
            code, out, _ = run(capsys, "classify", "--mode", mode, "--input", str(p))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert f"trailing rho estimates: {shown}\n" in outputs[0]

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

    @pytest.mark.parametrize("argv, spec", [
        (("--family", "alt_harmonic", "--count", "18"), GeneratorSpec("alt_harmonic", 18)),
        (("--family", "zeta2", "--count", "20", "--mode", "bigfloat"),
         GeneratorSpec("zeta2", 20, mode=BigFloat(128))),
        (("--family", "geometric", "--z=-2/3", "--count", "12", "--mode", "rational"),
         GeneratorSpec("geometric", 12, 0, RATIONAL, z=Fraction(-2, 3))),
        # a negative p/q or exponent-form value given as its own token
        (("--family", "geometric", "--z", "-2/3", "--count", "12", "--mode", "rational"),
         GeneratorSpec("geometric", 12, 0, RATIONAL, z=Fraction(-2, 3))),
        (("--family", "exp_series", "--z", "-1e-1", "--count", "12"),
         GeneratorSpec("exp_series", 12, 0, z=Fraction(-1, 10))),
        (("--family", "alt_harmonic", "--count", "12", "--mode", "rational", "--limit", "-1/3"),
         GeneratorSpec("alt_harmonic", 12, 1, RATIONAL)),
        # ... also after an option abbreviated as argparse allows
        (("--family", "alt_harmonic", "--count", "12", "--mode", "rational", "--lim", "-1/3"),
         GeneratorSpec("alt_harmonic", 12, 1, RATIONAL)),
    ], ids=["float64", "bigfloat128", "rational", "z_token", "z_exponent", "limit_token", "limit_prefix"])
    def test_cells_are_the_error_table(self, capsys, argv, spec):
        """Column 2k + i is error_table of the lattice (i = 0) or epsilon (i = 1)
        table at order k, computed at the mode's precision: BRK for a
        BREAKDOWN cell, blank outside the table."""
        code, out, _ = run(capsys, "compare", *argv, "--k-max", "3",
                           "--output-format", "csv", "--digits", "20")
        assert code == 0
        seq, limit = generate(spec)
        limit_option = next((a for a in argv if a.startswith("--lim")), None)
        if limit_option is not None:
            limit = spec.mode.parse(argv[argv.index(limit_option) + 1])
        errors = [error_table(transform(seq, 3), limit)
                  for transform in (lbq_transform, epsilon_transform)]
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(seq.labels())
        shown = set()
        for row in rows:
            for j, text in enumerate(row[1:]):
                k, i = divmod(j, 2)
                err = errors[i].get((k, int(row[0])))
                want = ("" if err is None else "BRK" if err is Status.BREAKDOWN
                        else format_fixed(err, 20))
                assert text == want
                shown.add(text if text in ("", "BRK") else "value")
        assert shown >= {"", "value"}

    def test_errors_are_computed_at_the_mode_precision(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--family", "archimedes_pi", "--count", "13", "--k-max", "1",
            "--mode", "bigfloat", "--precision-bits", "256", "--digits", "30",
            "--output-format", "csv",
        )
        assert code == 0
        # |2 - pi| at n = 1; a 53-bit subtraction gives ...793338042568393575
        assert out.splitlines()[1].split(",")[1] == "1.141592653589793238462643383280"

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

        t_columns = oracle._t_columns
        monkeypatch.setattr(oracle, "_t_columns", lambda *args: [
            [x if x is None else x + 1 for x in column] for column in t_columns(*args)])
        code, out, _ = run(capsys, "verify", "--trials", "1", "--k-max", "3", "--seed", "7")
        assert code == 1
        assert "route equivalence" in out and "FAIL" in out
        assert out.strip().endswith("FAIL (1 checks)")

    def test_a_check_that_compared_nothing_is_not_a_failure(self, capsys):
        # at length 4 the route check has one cell, and in 9 of these 300
        # trials the lattice breaks down there: those checks compare nothing
        code, out, _ = run(capsys, "verify", "--trials", "300", "--length", "4", "--k-max", "1")
        assert code == 0
        assert "FAIL" not in out and out.strip().endswith("PASS")
        assert out.count("route equivalence (0 cells) not compared") == 9

    def test_a_run_that_compared_nothing_fails(self, capsys, monkeypatch):
        from seqaccel import oracle

        monkeypatch.setattr(oracle, "verify_routes", lambda seq, k_max: (0, []))
        monkeypatch.setattr(oracle, "check_bilinear",
                            lambda seq, k_max: oracle.BilinearReport({}, 0, []))
        code, out, _ = run(capsys, "verify", "--trials", "2", "--seed", "7")
        assert code == 1
        assert out.count("(0 cells) not compared") == 4
        assert out.strip().endswith("FAIL (no check compared a cell)")

    @pytest.mark.parametrize("option, value, message", [
        ("--trials", "0", "--trials must be at least 1, got 0"),
        ("--trials", "-2", "--trials must be at least 1, got -2"),
        ("--k-max", "0", "--k-max must be at least 1, got 0"),
        ("--k-max", "-1", "--k-max must be at least 1, got -1"),
        ("--length", "3", "--length must be at least 4, got 3"),
        ("--length", "1", "--length must be at least 4, got 1"),
        ("--length", "0", "--length must be at least 4, got 0"),
    ], ids=["0", "-2", "k_max_0", "k_max_-1", "length_3", "length_1", "length_0"])
    def test_no_trial_is_rejected(self, capsys, option, value, message):
        # a run that checks nothing must not print PASS, nor a FAIL per
        # empty check: no trials, no bilinear cell at k_max 0, no route
        # cell of k = 1 on fewer than 4 values
        code, out, err = run(capsys, "verify", option, value)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

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

    def test_parser_is_built_once_and_a_failed_parse_leaves_it_as_new(self, capsys):
        argvs = (["transform", "--k-max", "two"],
                 ["transform", "--family", "zeta2", "--count", "8", "--k-max", "2"])

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit on a bad argument
                code = exc.code
            return code, *capsys.readouterr()

        reused = [call(argv) for argv in argvs]
        assert cli.build_parser() is cli.build_parser()
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(call(argv))
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [2, 0]
        assert "invalid int value: 'two'" in fresh[0][2] and fresh[1][1].startswith("| n | T0 |")

    @pytest.mark.parametrize("command", ["generate", "classify"])
    def test_breakdown_threshold_only_where_it_is_read(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "zeta2", "--count", "8", "--breakdown-threshold", "-5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --breakdown-threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, value", [
        (("transform", "--digits", "-1"), -1),
        (("transform", "--mode", "rational", "--digits", "-1"), -1),
        (("compare", "--mode", "bigfloat", "--digits", "-2"), -2),
        (("transform", "--k-max", "1", "--col-digits", "3,-4"), -4),
    ], ids=["float64", "rational", "bigfloat", "col_digits"])
    def test_negative_digits_rejected(self, capsys, argv, value):
        code, out, err = run(capsys, *argv, "--family", "alt_harmonic", "--count", "8")
        assert code == 1 and out == ""
        assert err == f"error: --digits and --col-digits must be >= 0, got {value}\n"

    @pytest.mark.parametrize("entries, entry", [("5,x", "x"), ("5,", ""), ("5,2.5", "2.5")])
    def test_col_digits_entry_that_is_not_an_integer_is_rejected(self, capsys, entries, entry):
        code, out, err = run(capsys, "transform", "--family", "alt_harmonic", "--count", "8",
                             "--col-digits", entries)
        assert code == 1 and out == ""
        assert err.startswith("error: --col-digits ") and repr(entry) in err

    @pytest.mark.parametrize("algorithm", ["lbq", "epsilon", "oracle"])
    def test_negative_k_max_exits_1(self, capsys, algorithm):
        code, out, err = run(capsys, "transform", "--family", "alt_harmonic", "--count", "8",
                             "--algorithm", algorithm, "--k-max", "-1")
        assert code == 1 and out == ""
        assert err == "error: max_order must be nonnegative\n"

    @pytest.mark.parametrize("bits, message", [
        ("63", "below the minimum of 64 bits"),
        ("100000000000", "above the maximum of 1048576 bits"),
    ], ids=["63", "1e11"])
    def test_precision_out_of_range_exits_1(self, capsys, bits, message):
        code, out, err = run(capsys, "transform", "--family", "alt_harmonic", "--count", "10",
                             "--mode", "bigfloat", "--precision-bits", bits)
        assert code == 1 and out == ""
        assert err == f"error: BigFloat precision {bits} bits is {message}\n"

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

    @pytest.mark.parametrize("argv, values, message", [
        (("classify", "--limit", "-1e308"), "1e308 1.5e308 1.7e308 1.75e308 1.76e308",
         "the remainder S_0 - S"),
        (("compare", "--limit", "-1.7e308", "--k-max", "1"),
         "1.7e308 1.6e308 1.65e308 1.62e308 1.64e308 1.63e308", "the error |T_0^(0) - S|"),
        # a large remainder over a subnormal one: the rho estimate would print as +inf
        (("classify", "--limit", "0"), "3.0 0.3333333333333333 1e-320 8.988465674311579e+307",
         "the ratio (S_3 - S)/(S_2 - S)"),
    ], ids=["classify", "compare", "classify-ratio"])
    def test_float64_difference_beyond_the_range_is_a_clean_error(self, capsys, tmp_path,
                                                                  argv, values, message):
        # S_n - S overflows: classify would print NaN ratios, compare fail to format inf
        p = tmp_path / "big.txt"
        p.write_text("\n".join(values.split()) + "\n")
        code, out, err = run(capsys, *argv, "--input", str(p))
        assert (code, out) == (1, "")
        assert err == f"error: {message} is beyond the float64 range\n"

    @pytest.mark.parametrize("command", ["generate", "transform", "classify", "compare"])
    def test_float64_exp_limit_beyond_the_range_is_unknown(self, capsys, command):
        code, out, err = run(capsys, command, "--family", "exp_series", "--z", "710", "--count", "8")
        if command == "compare":
            assert (code, out, err) == (1, "", "error: compare needs a known or overridden limit\n")
        else:
            assert code == 0 and out and err == ""

    @settings(max_examples=100, deadline=None)
    @given(args=generator_args())
    @example(args=["--family", "exp_series", "--z", "710"])
    @example(args=["--family", "archimedes_pi", "--start", "1024"])
    @example(args=["--family", "archimedes_pi", "--start", "-1023"])
    @example(args=["--family", "archimedes_pi", "--start", "-1075"])
    def test_generator_input_exits_cleanly(self, args):
        for command in ("generate", "transform"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main([command, *args]) in (0, 1)

    @pytest.mark.parametrize("command", ["generate", "transform"])
    @pytest.mark.parametrize("start, label", [(1021, 1024), (-1023, -1023), (-1075, -1075)])
    def test_float64_archimedes_label_out_of_range(self, capsys, command, start, label):
        code, out, err = run(capsys, command, "--family", "archimedes_pi", "--start", str(start),
                             "--count", "4")
        assert code == 1 and out == ""
        assert err.startswith(f"error: archimedes_pi label {label} is beyond the float64 range")

    @pytest.mark.parametrize("argv, message", [
        (("--breakdown-threshold", "-1"), "breakdown threshold -1.0 is negative"),
        (("--breakdown-threshold", "-1e-3"), "breakdown threshold -0.001 is negative"),
        (("--breakdown", "-1e-3"), "breakdown threshold -0.001 is negative"),
        (("--mode", "rational", "--breakdown-threshold", "1000"),
         "breakdown threshold 1000 has no effect in rational mode"),
        (("--algorithm", "oracle", "--breakdown-threshold", "1e-9"),
         "--breakdown-threshold does not apply to --algorithm oracle"),
    ], ids=["negative", "negative_exponent", "abbreviated_exponent", "exact_mode", "oracle"])
    def test_threshold_the_run_cannot_honour_is_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "transform", "--family", "alt_harmonic", "--count", "8",
                             "--k-max", "1", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [
        ("transform", "--family", "geometric", "--z", "1/0"),
        ("compare", "--family", "alt_harmonic", "--limit", "1/0"),
        ("transform", "--family", "alt_harmonic", "--breakdown-threshold", "1/0"),
    ], ids=["z", "limit", "breakdown_threshold"])
    def test_zero_denominator_option_is_a_clean_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--count", "8")
        assert code == 1 and out == ""
        assert err == "error: 1/0 has a zero denominator\n"

    @pytest.mark.parametrize("fmt, text, line", [
        ("lines", "1\n1/0\n", 2),
        ("csv", "n,v\n1,1\n2,1/0\n", 3),
    ], ids=["lines", "csv"])
    def test_zero_denominator_in_a_file_names_its_line(self, capsys, tmp_path, fmt, text, line):
        p = tmp_path / "zero.txt"
        p.write_text(text)
        code, out, err = run(capsys, "transform", "--input", str(p), "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {p}:{line}: cannot parse")

    def test_float64_threshold_overflow_is_a_clean_error(self, capsys):
        code, out, err = run(capsys, "transform", "--family", "alt_harmonic", "--count", "8",
                             "--breakdown-threshold", "1e400")
        assert code == 1 and out == ""
        assert err == "error: ~1e400 is beyond the float64 range\n"
