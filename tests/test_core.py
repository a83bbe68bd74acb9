"""Scalar modes, sequences, differences, and table containers."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    EmptyInputError,
    NonFiniteError,
    Sequence,
    Status,
    TransformEntry,
    WindowError,
    forward_difference,
    lbq_transform,
    mode_from_name,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def seq_of(values, start=0, mode=RATIONAL):
    return Sequence.from_iterable(values, start, mode)


class TestModes:
    def test_mode_from_name(self):
        assert mode_from_name("float64") is FLOAT64
        assert mode_from_name("rational") is RATIONAL
        assert mode_from_name("bigfloat", 200) == BigFloat(200)

    def test_bigfloat_minimum_precision(self):
        with pytest.raises(ValueError):
            BigFloat(32)

    def test_rational_parse_is_exact(self):
        assert RATIONAL.parse("0.1") == Fraction(1, 10)
        assert RATIONAL.parse("3/7") == Fraction(3, 7)

    def test_rational_constants_unsupported(self):
        from seqaccel import ModeUnsupportedError

        with pytest.raises(ModeUnsupportedError):
            RATIONAL.pi()

    @given(a=rationals, b=rationals, c=rationals)
    def test_rational_arithmetic_round_trips(self, a, b, c):
        # order of evaluation never changes an exact result
        assert (a + b) + c == a + (b + c)
        assert (a + b) - b == a
        if c != 0:
            assert (a / c) * c == a

    def test_bigfloat_conversion_precision(self):
        mode = BigFloat(128)
        x = mode.convert(Fraction(1, 3))
        assert abs(x * 3 - 1) < 1e-35


class TestSequence:
    def test_label_lookup(self):
        s = seq_of([1, 2, 3], start=5)
        assert s.at(5) == 1
        assert s.at(7) == 3

    def test_out_of_range_lookup_raises(self):
        s = seq_of([1, 2, 3], start=5)
        with pytest.raises(WindowError):
            s.at(4)
        with pytest.raises(WindowError):
            s.at(8)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            Sequence(0, (), RATIONAL)

    @pytest.mark.parametrize("mode", [FLOAT64, BigFloat(128)], ids=lambda m: m.name)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, mode, bad):
        with pytest.raises(NonFiniteError, match="S_4 "):
            Sequence(2, (1.0, 2.0, bad, 3.0), mode)

    def test_mpf_infinity_rejected(self):
        with pytest.raises(NonFiniteError, match="S_0 "):
            Sequence(0, (mpmath.inf,), BigFloat(128))

    def test_large_bigfloat_is_finite(self):
        # beyond float64's range, but finite at any mpmath precision
        mode = BigFloat(256)
        big = mode.parse("1e400")
        s = Sequence(0, (big, 2 * big), mode)
        assert s.values == (big, 2 * big)

    def test_rational_stores_ints_as_fractions(self):
        s = Sequence(0, (0, 1, 3, 10), RATIONAL)
        assert all(type(v) is Fraction for v in s.values)
        assert s.values == (0, 1, 3, 10)


class TestForwardDifference:
    def test_order_zero_is_identity(self):
        s = seq_of([3, 1, 4, 1, 5])
        assert forward_difference(s, 0).values == s.values

    def test_known_example(self):
        s = seq_of([1, 2, 4, 8])
        d2 = forward_difference(s, 2)
        assert list(d2) == [1, 2]
        assert d2.start_label == s.start_label

    def test_constant_sequence_vanishes(self):
        s = seq_of([7] * 6)
        assert all(v == 0 for v in forward_difference(s, 2))

    def test_order_too_large(self):
        with pytest.raises(WindowError):
            forward_difference(seq_of([1, 2]), 2)

    @given(
        values=st.lists(rationals, min_size=6, max_size=10),
        a=st.integers(0, 2),
        b=st.integers(0, 2),
    )
    def test_composition(self, values, a, b):
        s = seq_of(values)
        once = forward_difference(forward_difference(s, b), a)
        assert once.values == forward_difference(s, a + b).values


class TestTransformTable:
    def test_gauge_row_equals_input(self):
        s = seq_of([Fraction(i, 3) for i in range(8)], start=2)
        table = lbq_transform(s, 2)
        for n in s.labels():
            entry = table.get(0, n)
            assert entry.status is Status.VALID
            assert entry.value == s.at(n)

    def test_out_of_window_is_unavailable(self):
        s = seq_of(list(range(1, 8)))
        table = lbq_transform(s, 2)
        # k=2 consumes S_n..S_{n+6}: only n=0 fits a 7-element input
        assert table.get(2, 1).status is Status.UNAVAILABLE
        assert table.get(5, 0).status is Status.UNAVAILABLE

    def test_entry_constructors(self):
        assert TransformEntry.valid(1).ok
        assert not TransformEntry.breakdown().ok
        assert TransformEntry.unavailable().status is Status.UNAVAILABLE
