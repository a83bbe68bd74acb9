"""Wynn's epsilon algorithm."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from seqaccel import (
    RATIONAL,
    GeneratorSpec,
    Sequence,
    Status,
    epsilon_transform,
    generate,
)
from seqaccel.seqgen import random_rational_sequence

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def seq_of(values, start=0, mode=RATIONAL):
    return Sequence.from_iterable(values, start, mode)


def eps_direct(values_by_label, j, n):
    """Straight recursive evaluation of the two-term recursion."""
    if j == -1:
        return Fraction(0)
    if j == 0:
        return values_by_label[n]
    below_n = eps_direct(values_by_label, j - 1, n)
    below_n1 = eps_direct(values_by_label, j - 1, n + 1)
    carry = eps_direct(values_by_label, j - 2, n + 1)
    return carry + 1 / (below_n1 - below_n)


class TestGauge:
    def test_order_zero_is_input(self):
        s = seq_of([Fraction(i, 7) for i in range(1, 8)], start=3)
        table = epsilon_transform(s, 2)
        for n in s.labels():
            assert table.get(0, n).value == s.at(n)


class TestKernel:
    def test_single_geometric_term(self):
        # S_n = S + c r^n is resolved exactly at order 1 (Aitken kernel)
        S, c, r = Fraction(2), Fraction(3), Fraction(1, 4)
        s = seq_of([S + c * r**n for n in range(8)])
        table = epsilon_transform(s, 1)
        for n, value in table.column(1):
            assert value == S

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sum_of_k_geometric_terms(self, k):
        S = Fraction(1, 3)
        ratios = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)][:k]
        weights = [Fraction(1), Fraction(2), Fraction(1, 2)][:k]
        values = [
            S + sum(c * r**n for c, r in zip(weights, ratios)) for n in range(2 * k + 4)
        ]
        table = epsilon_transform(seq_of(values), k)
        col = table.column(k)
        assert col
        for n, value in col:
            assert value == S


class TestAgainstDirectRecursion:
    def test_alternating_harmonic_order_two(self):
        seq, _ = generate(GeneratorSpec("alt_harmonic", 8, 1, RATIONAL))
        values = {n: seq.at(n) for n in seq.labels()}
        table = epsilon_transform(seq, 2)
        assert table.get(2, 1).value == eps_direct(values, 4, 1)

    def test_random_rational_inputs(self, rng):
        for _ in range(10):
            seq = random_rational_sequence(rng, length=9)
            values = {n: seq.at(n) for n in seq.labels()}
            table = epsilon_transform(seq, 2)
            for k in range(3):
                for n in seq.labels():
                    entry = table.get(k, n)
                    if entry.status is Status.VALID:
                        assert entry.value == eps_direct(values, 2 * k, n)


class TestInvariances:
    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(rationals, min_size=6, max_size=8), c=rationals)
    def test_translativity(self, values, c):
        s = seq_of(values)
        t0 = epsilon_transform(s, 2)
        t1 = epsilon_transform(s.map(lambda v: v + c), 2)
        for key, entry in t0.entries.items():
            other = t1.entries[key]
            assert other.status == entry.status
            if entry.ok:
                assert other.value == entry.value + c

    @settings(max_examples=20, deadline=None)
    @given(
        values=st.lists(rationals, min_size=6, max_size=8),
        lam=rationals.filter(lambda x: x != 0),
    )
    def test_homogeneity(self, values, lam):
        s = seq_of(values)
        t0 = epsilon_transform(s, 2)
        t1 = epsilon_transform(s.map(lambda v: v * lam), 2)
        for key, entry in t0.entries.items():
            other = t1.entries[key]
            assert other.status == entry.status
            if entry.ok:
                assert other.value == entry.value * lam


class TestBreakdown:
    def test_constant_sequence(self):
        table = epsilon_transform(seq_of([5] * 6), 1)
        for n in range(4):
            assert table.get(1, n).status is Status.BREAKDOWN
