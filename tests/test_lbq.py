"""The lattice acceleration engine."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_tables import TABLE_PI

from seqaccel import (
    FLOAT64,
    RATIONAL,
    EmptyInputError,
    GeneratorSpec,
    Sequence,
    Status,
    build_lattice,
    forward_difference,
    generate,
    kernel_construct,
    lbq_transform,
    t_determinant,
)
from seqaccel.seqgen import random_rational_sequence

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def seq_of(values, start=0, mode=RATIONAL):
    return Sequence.from_iterable(values, start, mode)


class TestInit:
    def test_single_element(self):
        lat = build_lattice(seq_of([5]), 0)
        assert lat.entry(3, 0).value == 5
        assert lat.entry(2, 0).value == 0
        assert lat.entry(1, 0).value == 0

    def test_second_level_carries_labels(self):
        seq, _ = generate(GeneratorSpec("archimedes_pi", 6, 1))
        lat = build_lattice(seq, 0)
        assert [lat.entry(2, n).value for n in seq.labels()] == [1, 2, 3, 4, 5, 6]

    def test_mode_propagates(self):
        lat = build_lattice(seq_of([Fraction(1, 2), Fraction(1, 3)]), 0)
        for k in (1, 2, 3):
            assert isinstance(lat.entry(k, 0).value, Fraction)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            Sequence(0, (), RATIONAL)


class TestRecursion:
    def test_level_four_closed_form(self):
        # substituting the initial levels gives U_4^n = -1 / (S_{n+1} - S_n)
        s = seq_of([Fraction(p, q) for p, q in [(1, 2), (2, 3), (5, 7), (9, 4)]])
        lat = build_lattice(s, 1)
        d = forward_difference(s)
        for n in range(3):
            assert lat.entry(4, n).value == -1 / d.at(n)

    def test_constant_sequence_breaks_down(self):
        lat = build_lattice(seq_of([3] * 5), 1)
        assert all(e.status is Status.BREAKDOWN for e in lat.levels[4].values())

    def test_breakdown_poisons_dependents(self):
        # constant tail forces a zero difference at level 4; everything
        # above that cell must be BREAKDOWN, not a number
        s = seq_of([1, 2, 2, 5, 7, 11, 13])
        lat = build_lattice(s, 1)
        assert lat.entry(4, 1).status is Status.BREAKDOWN
        assert lat.entry(5, 0).status is Status.BREAKDOWN
        assert lat.entry(5, 1).status is Status.BREAKDOWN
        assert lat.entry(6, 0).status is Status.BREAKDOWN

    def test_pi_example_first_column(self):
        seq, _ = generate(GeneratorSpec("archimedes_pi", 13, 1))
        lat = build_lattice(seq, 1)
        assert lat.entry(6, 1).value == pytest.approx(
            float(TABLE_PI[(1, 1)]), abs=1e-10
        )


class TestTransform:
    def test_pi_example_values(self):
        seq, _ = generate(GeneratorSpec("archimedes_pi", 13, 1))
        table = lbq_transform(seq, 2)
        assert table.get(1, 1).value == pytest.approx(3.1679051916, abs=1e-10)
        assert table.get(2, 3).value == pytest.approx(3.1415926509, abs=1e-10)

    def test_geometric_remainder_is_order_one_kernel(self):
        # S_n = 1 + (1/2)^n is annihilated exactly at order 1
        s = seq_of([1 + Fraction(1, 2) ** n for n in range(10)])
        table = lbq_transform(s, 1)
        for n in range(7):
            assert table.get(1, n).value == 1

    def test_matches_determinant_oracle(self, rng):
        for _ in range(25):
            seq = random_rational_sequence(rng, length=12)
            table = lbq_transform(seq, 3)
            for k in range(4):
                for n in seq.labels():
                    entry = table.get(k, n)
                    if entry.status is Status.VALID:
                        assert entry.value == t_determinant(seq, k, n)

    def test_kernel_sequences_map_to_limit(self):
        s = kernel_construct(
            Fraction(3), [Fraction(1, 2), Fraction(-1, 3)], [1, 2], 0, 12
        )
        table = lbq_transform(s, 2)
        for n, value in table.column(2):
            assert value == 3


class TestInvariances:
    def test_label_shift(self, rng):
        for _ in range(5):
            seq = random_rational_sequence(rng, length=10)
            base = build_lattice(seq, 2)
            shifted = build_lattice(seq, 2, label_offset=7)
            for m, row in base.levels.items():
                for n, entry in row.items():
                    other = shifted.entry(m, n)
                    assert other.status == entry.status
                    if entry.status is Status.VALID:
                        if m % 3 == 2:
                            assert other.value == entry.value + 7
                        else:
                            assert other.value == entry.value

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(rationals, min_size=7, max_size=9),
        c=rationals,
    )
    def test_translativity(self, values, c):
        s = seq_of(values)
        shifted = s.map(lambda v: v + c)
        t0 = lbq_transform(s, 2)
        t1 = lbq_transform(shifted, 2)
        for key, entry in t0.entries.items():
            other = t1.entries[key]
            assert other.status == entry.status
            if entry.ok:
                assert other.value == entry.value + c

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(rationals, min_size=7, max_size=9),
        lam=rationals.filter(lambda x: x != 0),
    )
    def test_homogeneity(self, values, lam):
        s = seq_of(values)
        scaled = s.map(lambda v: v * lam)
        t0 = lbq_transform(s, 2)
        t1 = lbq_transform(scaled, 2)
        for key, entry in t0.entries.items():
            other = t1.entries[key]
            assert other.status == entry.status
            if entry.ok:
                assert other.value == entry.value * lam
