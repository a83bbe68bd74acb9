"""Scalar modes, sequences, differences, and table containers."""

import dataclasses
import gc
import math
import pickle
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    EmptyInputError,
    GeneratorSpec,
    IngestError,
    NonFiniteError,
    Sequence,
    SpecError,
    Status,
    TransformEntry,
    WindowError,
    build_lattice,
    epsilon_transform,
    forward_difference,
    generate,
    lbq_transform,
    mode_from_name,
)
from seqaccel.tables import BREAKDOWN_ENTRY, UNAVAILABLE_ENTRY

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
        assert BigFloat(64).precision_bits == 64
        for bits in (32, 63):
            with pytest.raises(SpecError, match=f"precision {bits} bits is below the minimum "
                                                "of 64 bits"):
                BigFloat(bits)
            with pytest.raises(SpecError):
                mode_from_name("bigfloat", bits)

    def test_unknown_mode_name(self):
        with pytest.raises(SpecError, match="unknown scalar mode 'quad': the modes are "
                                            "float64, bigfloat and rational"):
            mode_from_name("quad")

    def test_bigfloat_maximum_precision(self):
        # rejected before any value is converted, so nothing is allocated
        assert BigFloat(2**20).precision_bits == 2**20
        for bits in (2**20 + 1, 100_000_000_000):
            with pytest.raises(SpecError, match=f"precision {bits} bits is above the maximum "
                                                f"of {2**20} bits"):
                BigFloat(bits)
            with pytest.raises(SpecError):
                mode_from_name("bigfloat", bits)

    @pytest.mark.parametrize("mode, text, error, message", [
        (FLOAT64, "1/0", IngestError, "1/0 has a zero denominator"),
        (FLOAT64, " 1e999 ", NonFiniteError, "~1e999 is beyond the float64 range"),
        (RATIONAL, "3/0", IngestError, "3/0 has a zero denominator"),
        (BigFloat(64), "-2/0", IngestError, "-2/0 has a zero denominator"),
        (FLOAT64, "abc", IngestError, "'abc' is not a number"),
        (RATIONAL, "abc", IngestError, "'abc' is not a number"),
        (BigFloat(64), "1/2/3", IngestError, "'1/2/3' is not a number"),
    ])
    def test_parse_errors_are_seqaccel_errors(self, mode, text, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            mode.parse(text)

    def test_bigfloat_values_pickle(self):
        for bits in (64, 256):
            mode = BigFloat(bits)
            x = mode.convert(Fraction(1, 3))
            y = pickle.loads(pickle.dumps(x))
            assert type(y) is mode.value_type and y._mpf_ == x._mpf_
            # the unpickled value still rounds at its mode's precision
            assert (y / 7)._mpf_[3] == bits

    def test_rational_parse_is_exact(self):
        assert RATIONAL.parse("0.1") == Fraction(1, 10)
        assert RATIONAL.parse("3/7") == Fraction(3, 7)

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

    @given(p=st.integers(0, 3000).flatmap(lambda size: st.integers(-2**size, 2**size)),
           q=st.integers(1, 3000).flatmap(lambda size: st.integers(1, 2**size)),
           bits=st.sampled_from([64, 128, 256, 1200]))
    # rounding the numerator first gets these wrong in the last bit
    @example(p=316567598363139886143703424307, q=623700425302028405, bits=64)
    @example(p=319811513492108910478582328675833427582851952992, q=1013202180855784015, bits=128)
    @example(
        p=145990771338879515839081269169663877214252344419352383735847166722491327987732718,
        q=1111524412694376307, bits=256)
    @example(p=0, q=7, bits=64)
    @example(p=-1, q=3, bits=1200)
    @example(p=-(2**3000 - 1), q=2**2999 + 1, bits=256)  # a quotient just under 2
    @example(p=2**64 + 1, q=2, bits=64)  # a tie, rounded to even
    @example(p=2**65 - 1, q=1, bits=64)  # a carry to the next power of two
    def test_bigfloat_converts_a_fraction_with_one_rounding(self, p, q, bits):
        x = Fraction(p, q)
        want = from_rational(x.numerator, x.denominator, bits, round_nearest)
        # repr, so that a sign of True or False does not pass for 1 or 0
        assert repr(BigFloat(bits).convert(x)._mpf_) == repr(want)

    def test_bigfloat_converts_the_exp_series_partial_sums_with_one_rounding(self):
        # the partial sums of exp(7/5) to N = 4000, every 50th: S_n = a_n / (5^n n!)
        # with a_n = 5n a_(n-1) + 7^n, operands of up to some 15,000 digits
        sums, a, den = [], 1, 1
        for n in range(1, 4001):
            a, den = 5 * n * a + 7**n, 5 * n * den
            if n % 50 == 0:
                sums.append(Fraction(a, den))
        assert sums[-1].denominator.bit_length() > 40000
        for bits in (64, 256, 1200):
            mode = BigFloat(bits)
            for x in sums:
                want = from_rational(x.numerator, x.denominator, bits, round_nearest)
                assert repr(mode.convert(x)._mpf_) == repr(want)

    @given(digits=st.integers(10**59, 10**60 - 1), point=st.integers(0, 60),
           bits=st.sampled_from([64, 128, 256]))
    # rounding the numerator first gets these wrong in the last bit
    @example(digits=159045847445290784547485545652755828235741629986498403297923,
             point=48, bits=64)
    @example(digits=207320215273806756919335056461850894148859452669857229697329,
             point=5, bits=128)
    def test_bigfloat_parses_a_long_decimal_with_one_rounding(self, digits, point, bits):
        text = f"{str(digits)[:point]}.{str(digits)[point:]}"
        x = Fraction(text)
        want = from_rational(x.numerator, x.denominator, bits, round_nearest)
        assert BigFloat(bits).parse(text)._mpf_ == want


    @pytest.mark.parametrize("bits", [1099, 1200])
    def test_bigfloat_default_threshold_does_not_underflow(self, bits):
        # the float 2.0 ** (24 - bits) is 0.0 from 1,099 bits on
        mode = BigFloat(bits)
        threshold = mode.default_breakdown_threshold
        assert threshold > 0 and threshold == mpmath.mpf(2) ** (24 - bits)
        seq, _ = generate(GeneratorSpec("geometric", 20, 0, mode, z=Fraction(-1, 3)))
        assert lbq_transform(seq, 5).get(2, 3).status is Status.BREAKDOWN


# (mode, value, its text): each value is not finite in its mode
NON_FINITE = [
    (FLOAT64, 10**400, "~1e400"),
    (FLOAT64, Fraction(-10**401, 7), "~-1e400"),
    *[(mode, bad, text) for mode in (FLOAT64, BigFloat(64), RATIONAL)
      for bad, text in ((math.nan, "nan"), (math.inf, "inf"))],
]


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

    def test_int_beyond_float64_rejected(self):
        with pytest.raises(NonFiniteError, match="S_0 "):
            Sequence(0, (10**400,), FLOAT64)

    def test_int_beyond_float64_converts_to_a_clean_error(self):
        with pytest.raises(NonFiniteError, match=r"^S_1 = ~1e400 is not finite in float64 mode$"):
            Sequence.from_iterable([1, 10**400], 0, FLOAT64)
        with pytest.raises(NonFiniteError, match=r"^S_0 = ~-1e400 is not finite in float64 mode$"):
            Sequence.from_iterable([Fraction(-10**401, 7)], 0, FLOAT64)

    @pytest.mark.parametrize("mode, bad, text", NON_FINITE,
                             ids=[f"{mode.name}-{text}" for mode, _, text in NON_FINITE])
    def test_non_finite_value_has_one_message_on_both_builds(self, mode, bad, text):
        messages = []
        for build in (Sequence, lambda n, v, m: Sequence.from_iterable(v, n, m)):
            with pytest.raises(NonFiniteError) as info:
                build(3, (1.0, bad, 2.0), mode)
            messages.append(str(info.value))
        assert messages == [f"S_4 = {text} is not finite in {mode.name} mode"] * 2

    def test_huge_int_named_by_magnitude(self):
        # repr of an int over 4,300 digits raises ValueError in Python 3.11
        with pytest.raises(NonFiniteError, match=r"S_3 = ~1e5000 is not finite"):
            Sequence(3, (10**5000,), FLOAT64)

    def test_mpf_infinity_rejected(self):
        with pytest.raises(NonFiniteError, match="S_0 "):
            Sequence(0, (mpmath.inf,), BigFloat(128))

    def test_large_bigfloat_is_finite(self):
        # beyond float64's range, but finite at any mpmath precision
        mode = BigFloat(256)
        big = mode.parse("1e400")
        s = Sequence(0, (big, 2 * big), mode)
        assert s.values == (big, 2 * big)

    def test_bigfloat_rounds_a_wider_mpf_once(self):
        # mpf values made at 300 bits keep 300-bit mantissas unless the
        # sequence rounds them to its own precision
        with mpmath.workprec(300):
            wide = [mpmath.mpf(1) / 3 * (1 + mpmath.ldexp(1, -k)) for k in range(1, 200, 7)]
        assert max(x._mpf_[3] for x in wide) > 64
        for build in (Sequence, lambda n, v, m: Sequence.from_iterable(v, n, m)):
            s = build(0, tuple(wide), BigFloat(64))
            assert max(v._mpf_[3] for v in s.values) <= 64
            with mpmath.workprec(64):
                assert [v._mpf_ for v in s.values] == [mpmath.mpf(x)._mpf_ for x in wide]

    def test_rational_stores_ints_as_fractions(self):
        s = Sequence(0, (0, 1, 3, 10), RATIONAL)
        assert all(type(v) is Fraction for v in s.values)
        assert s.values == (0, 1, 3, 10)

    @pytest.mark.parametrize("mode", [FLOAT64, BigFloat(64)], ids=lambda m: m.name)
    def test_direct_build_equals_from_iterable(self, mode):
        # ints and Fractions in a float mode are stored as the mode's own numbers
        values = (Fraction(1, 3), 1, 2.5, 4, 7.25, 9, Fraction(31, 3))
        direct, built = Sequence(1, values, mode), Sequence.from_iterable(values, 1, mode)
        assert [(type(v), v) for v in direct.values] == [(type(v), v) for v in built.values]
        for build in (lbq_transform, epsilon_transform, build_lattice):
            tables = [build(s, 2).entries.items() for s in (direct, built)]
            cells = [[(key, e.status, type(e.value), e.value) for key, e in t] for t in tables]
            assert cells[0] == cells[1]

    @pytest.mark.parametrize("mode", [FLOAT64, BigFloat(64), RATIONAL], ids=lambda m: m.name)
    def test_direct_build_reads_strings_as_from_iterable(self, mode):
        values = ("1.5", 2.0, "-3e-2", Fraction(1, 4), 7)
        direct, built = Sequence(1, values, mode), Sequence.from_iterable(values, 1, mode)
        assert [(type(v), v) for v in direct.values] == [(type(v), v) for v in built.values]
        assert all(type(v) is mode.value_type for v in direct.values)
        assert direct.values == tuple(mode.convert(v) for v in values)

    @pytest.mark.parametrize("build", [Sequence, lambda n, v, m: Sequence.from_iterable(v, n, m)],
                             ids=["direct", "from_iterable"])
    @pytest.mark.parametrize("mode", [FLOAT64, BigFloat(64), RATIONAL], ids=lambda m: m.name)
    @pytest.mark.parametrize("bad, text", [("abc", "'abc'"), (None, "None"), (1j, "1j")])
    def test_unreadable_value_names_label_and_value(self, build, mode, bad, text):
        with pytest.raises(IngestError, match=rf"^S_5 = {text} is not a number in {mode.name} mode$"):
            build(3, (1.0, 2.0, bad, 4.0), mode)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_in_rational_from_iterable(self, bad):
        with pytest.raises(NonFiniteError, match="is not finite in rational mode"):
            Sequence.from_iterable([1.0, bad], 0, RATIONAL)


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

    def test_negative_order_rejected(self):
        # a WindowError like the engines' negative max_order, not a plain ValueError
        with pytest.raises(WindowError, match="difference order -1 must be nonnegative"):
            forward_difference(seq_of([1, 2, 4]), -1)

    def test_bigfloat_differences_are_rounded_at_the_mode_precision(self):
        # mpmath's ambient precision stays at 53 bits; the differences keep 256
        mode = BigFloat(256)
        seq, _ = generate(GeneratorSpec("alt_harmonic", 30, 1, mode))
        with mpmath.workprec(256):
            want = [mpmath.mpf(v) for v in seq]
            for _ in range(3):
                want = [b - a for a, b in zip(want, want[1:])]
        got = forward_difference(seq, 3)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]
        assert all(type(v) is mode.value_type for v in got)

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

    def test_entries_equal_constructed_ones(self):
        # 1e-310 makes the engines break down on product underflow and overflow;
        # a constant stretch gives interior BREAKDOWN cells in every mode
        stretch = ([Fraction(1, n) for n in range(1, 9)] + [Fraction(1, 8)] * 4
                   + [Fraction(1, 9), Fraction(1, 10)])
        seqs = [generate(GeneratorSpec("alt_harmonic", 40))[0],
                Sequence.from_iterable([1e-310 * (1 + 0.5**n) for n in range(16)], 0, FLOAT64),
                Sequence.from_iterable(stretch, 0, FLOAT64),
                Sequence.from_iterable(stretch, 0, BigFloat(128)),
                seq_of(stretch),
                seq_of([Fraction(1, n) for n in range(1, 12)] + [Fraction(1)] * 3)]
        for seq in seqs:
            tables = [lbq_transform(seq, 4), epsilon_transform(seq, 5), build_lattice(seq, 4)]
            entries = [e for t in tables for e in t.entries.values()]
            assert [e for t in tables for _, e in t.entries.items()] == entries
            assert {e.status for e in entries} == {Status.VALID, Status.BREAKDOWN}
            for entry in entries:
                if entry.status is Status.BREAKDOWN:
                    assert entry is BREAKDOWN_ENTRY
                    continue
                built = TransformEntry(entry.value)
                assert entry == built and hash(entry) == hash(built) and repr(entry) == repr(built)
                assert type(entry) is TransformEntry and entry.ok is built.ok is True
                assert entry.value is built.value and entry.status is built.status
                for field in ("value", "status", "ok"):
                    with pytest.raises(FrozenInstanceError):
                        setattr(entry, field, None)
        # an interior None cell of a live prefix reads as BREAKDOWN_ENTRY itself
        for mode in (FLOAT64, BigFloat(128), RATIONAL):
            table = epsilon_transform(Sequence.from_iterable(stretch, 0, mode), 5)
            interior = [(k, n) for k, (prefix, _) in table.columns.items()
                        for n, v in enumerate(prefix) if v is None]
            assert interior
            values = list(table.entries.values())
            items = dict(table.entries.items())
            for key in interior:
                assert items[key] is BREAKDOWN_ENTRY
                assert values[list(table.entries).index(key)] is BREAKDOWN_ENTRY

    def test_ok_is_stored_from_the_status(self):
        assert TransformEntry(1.5).ok is TransformEntry.valid(1.5).ok is True
        assert TransformEntry(None, Status.BREAKDOWN).ok is False
        assert TransformEntry(None, Status.UNAVAILABLE).ok is False
        assert BREAKDOWN_ENTRY.ok is UNAVAILABLE_ENTRY.ok is False
        entry = TransformEntry(Fraction(1, 3))
        with pytest.raises(FrozenInstanceError):
            entry.ok = False
        assert dataclasses.replace(entry, status=Status.BREAKDOWN).ok is False
        assert dataclasses.replace(BREAKDOWN_ENTRY, value=2.0, status=Status.VALID).ok is True
        # ok is derived: it takes no part in the constructor, ==, hash or repr
        with pytest.raises(TypeError):
            TransformEntry(1.5, Status.VALID, False)
        assert "ok" not in repr(entry)
        assert hash(entry) == hash((Fraction(1, 3), Status.VALID))

    @staticmethod
    def breakdown_table():
        # a constant stretch gives epsilon interior BREAKDOWN cells, prefixes
        # shorter than their columns and empty ones
        values = [Fraction(1, n) for n in range(1, 9)] + [Fraction(1, 8)] * 4 + [Fraction(1, 9)]
        return epsilon_transform(seq_of(values + [Fraction(1, 10)], start=3), 5)

    def test_entries_view_order_and_length(self):
        table = self.breakdown_table()
        lengths = {k: length for k, (_, length) in table.columns.items()}
        assert lengths == {k: 14 - 2 * k for k in range(6)}
        order = [(k, n) for k in range(6) for n in range(3, 3 + lengths[k])]
        entries = table.entries
        assert list(entries) == list(entries.keys()) == order
        assert len(entries) == sum(lengths.values())
        assert list(entries.items()) == [(key, entries[key]) for key in order]
        assert list(entries.values()) == [table.get(*key) for key in order]
        assert {e.status for e in entries.values()} == {Status.VALID, Status.BREAKDOWN}
        assert entries == dict(entries.items()) and entries == self.breakdown_table().entries

    @pytest.mark.parametrize("key", [(6, 3), (-1, 3), (0, 2), (0, 17), (5, 7),
                                     5, "ab", (0,), (0, 3, 0), ([0], 3)])
    def test_entries_view_key_error_outside_the_table(self, key):
        entries = self.breakdown_table().entries
        with pytest.raises(KeyError):
            entries[key]
        with pytest.raises(KeyError):
            entries[key] = TransformEntry.valid(1)
        assert key not in entries

    def test_set_entry_reads_back_everywhere(self):
        table = self.breakdown_table()
        prefix, length = table.columns[2]
        assert 0 < len(prefix) < length - 2
        inside, past = (2, 3), (2, 3 + length - 2)
        before = len(table.entries)
        for (k, n), x in ((inside, Fraction(7, 2)), (past, Fraction(-5))):
            table.entries[k, n] = TransformEntry.valid(x)
            assert table.get(k, n) == table.entries[k, n] == TransformEntry(x)
            assert (n, x) in table.column(k)
            assert dict(table.entries.items())[k, n] == TransformEntry(x)
        # the cells between the old prefix and the written one still read BREAKDOWN
        assert table.get(2, 3 + length - 3) is BREAKDOWN_ENTRY
        assert table.get(2, 3 + length - 1) is BREAKDOWN_ENTRY
        table.entries[inside] = BREAKDOWN_ENTRY
        assert table.get(*inside) is BREAKDOWN_ENTRY and (3, Fraction(7, 2)) not in table.column(2)
        assert len(table.entries) == before
        with pytest.raises(ValueError):
            table.entries[inside] = UNAVAILABLE_ENTRY
        with pytest.raises(TypeError):
            del table.entries[inside]

    def test_a_table_holds_no_entry_per_cell(self):
        seq, _ = generate(GeneratorSpec("zeta2", 300))

        def live_entries():
            return sum(type(o) is TransformEntry for o in gc.get_objects())

        gc.collect()
        before = live_entries()
        table = lbq_transform(seq, 30)
        assert sum(e.ok for e in table.entries.values()) > 1000
        assert live_entries() - before <= 2

    def test_whole_table_readers_share_one_key_list(self):
        table = self.breakdown_table()
        keys = list(table.entries)
        assert keys == [(k, n) for k, (_, length) in table.columns.items()
                        for n in range(3, 3 + length)]
        for again in (list(table.entries), list(table.entries.keys()),
                      [key for key, _ in table.entries.items()], list(table.cells(str))):
            assert again == keys and all(a is b for a, b in zip(again, keys))

    def test_key_list_follows_the_shape(self):
        table = self.breakdown_table()
        before = list(table.entries)
        # a column of another length, then new columns, then a new start label
        prefix, length = table.columns[5]
        table.columns[5] = (prefix, length + 2)
        assert list(table.entries) == before + [(5, 3 + length), (5, 4 + length)]
        assert list(table.cells(str)) == list(table.entries)
        table.columns = {1: ([Fraction(1)], 3), 0: ([], 1)}
        assert list(table.entries) == [(1, 3), (1, 4), (1, 5), (0, 3)]
        assert table.cells(str) == {(1, 3): "1", (1, 4): Status.BREAKDOWN,
                                    (1, 5): Status.BREAKDOWN, (0, 3): Status.BREAKDOWN}
        table.start_label = -1
        assert list(table.entries) == [(1, -1), (1, 0), (1, 1), (0, -1)]
        # a cell written through the view changes no shape, and no key
        keys = list(table.entries)
        table.entries[1, 1] = TransformEntry.valid(Fraction(2))
        assert all(a is b for a, b in zip(table.entries, keys))

    def test_key_list_plays_no_part_in_eq_repr_replace_or_pickle(self):
        read, fresh = self.breakdown_table(), self.breakdown_table()
        list(read.entries)
        assert read == fresh and repr(read) == repr(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        for copy in (dataclasses.replace(read), pickle.loads(pickle.dumps(read))):
            assert copy == fresh
            assert list(copy.entries) == list(fresh.entries)
            assert not any(a is b for a, b in zip(copy.entries, read.entries))
        # a replaced table of another shape reads its own keys
        shorter = dataclasses.replace(read, columns={0: read.columns[0]})
        assert list(shorter.entries) == [(0, n) for n in range(3, 17)]

    def test_bigfloat_table_pickles(self):
        # each value comes back as its precision's mpf, with the same tuple
        mode = BigFloat(256)
        seq, _ = generate(GeneratorSpec("alt_harmonic", 40, 1, mode))
        for table in (lbq_transform(seq, 6), epsilon_transform(seq, 6)):
            copy = pickle.loads(pickle.dumps(table))
            assert copy.mode == mode and copy.columns.keys() == table.columns.keys()
            for k, (prefix, length) in table.columns.items():
                got, got_length = copy.columns[k]
                assert got_length == length
                assert [None if v is None else v._mpf_ for v in got] == [
                    None if v is None else v._mpf_ for v in prefix]
                assert all(v is None or type(v) is mode.value_type for v in got)
            assert copy.cells(lambda v: v) == table.cells(lambda v: v)

    def test_entry_constructors(self):
        assert TransformEntry.valid(1).ok
        assert BREAKDOWN_ENTRY.status is Status.BREAKDOWN and not BREAKDOWN_ENTRY.ok
        assert UNAVAILABLE_ENTRY.status is Status.UNAVAILABLE and not UNAVAILABLE_ENTRY.ok
