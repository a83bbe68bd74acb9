"""The rhombus kernel shared by the lattice and epsilon engines."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    Sequence,
    Status,
    build_lattice,
    epsilon_transform,
    lbq_transform,
)
from seqaccel.rhombus import rhombus

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def plain_lattice(values, start, m_max):
    """{(m, n): U_m^n} cell by cell from the recursion; None marks BREAKDOWN."""
    end = start + len(values) - 1
    u = {}
    for n in range(start, end + 1):
        u[1, n], u[2, n], u[3, n] = Fraction(0), Fraction(n), values[n - start]
    for m in range(4, m_max + 1):
        for n in range(start, end - m + 4):
            c, m0, m1, t0, t1 = u[m - 3, n + 1], u[m - 2, n], u[m - 2, n + 1], u[m - 1, n], u[m - 1, n + 1]
            if None in (c, m0, m1, t0, t1) or m0 == m1 or t0 == t1:
                u[m, n] = None
            else:
                u[m, n] = c - 1 / ((t1 - t0) * (m1 - m0))
    return u


def plain_epsilon(values, start, j_max):
    """{(j, n): eps_j^(n)} cell by cell from the recursion; None marks BREAKDOWN."""
    end = start + len(values) - 1
    e = {(-1, n): Fraction(0) for n in range(start, end + 2)}
    e.update({(0, n): values[n - start] for n in range(start, end + 1)})
    for j in range(1, j_max + 1):
        for n in range(start, end - j + 1):
            c, a, b = e[j - 2, n + 1], e[j - 1, n], e[j - 1, n + 1]
            e[j, n] = None if None in (c, a, b) or a == b else c + 1 / (b - a)
    return e


def assert_matches(table, cells):
    """Every entry of ``table`` equals ``cells[(k, n)]`` (None for BREAKDOWN)."""
    assert table.entries.keys() == cells.keys()
    for key, entry in table.entries.items():
        want = cells[key]
        if want is None:
            assert entry.status is Status.BREAKDOWN, key
        else:
            assert entry.status is Status.VALID and entry.value == want, key


class TestTableShape:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(rationals, min_size=1, max_size=12),
        start=st.integers(-3, 5),
        max_order=st.integers(0, 4),
    )
    def test_lattice_columns_are_levels_and_windows_fit(self, values, start, max_order):
        seq = Sequence.from_iterable(values, start, RATIONAL)
        lattice = build_lattice(seq, max_order)
        for transform, step in ((lbq_transform, 3), (epsilon_transform, 2)):
            table = transform(seq, max_order)
            assert set(table.entries) == {
                (k, n)
                for k in range(max_order + 1)
                for n in range(seq.start_label, seq.end_label - step * k + 1)
            }
        table = lbq_transform(seq, max_order)
        assert_matches(table, {
            (k, n): entry.value if entry.ok else None
            for k in range(max_order + 1)
            for n, entry in lattice.levels[3 * k + 3].items()
        })

    @settings(max_examples=30, deadline=None)
    @given(
        head=st.lists(rationals, min_size=1, max_size=6),
        tail=rationals,
        repeat=st.integers(2, 6),
        start=st.integers(0, 3),
    )
    def test_constant_tail_poisons_like_the_plain_recursion(self, head, tail, repeat, start):
        values = head + [tail] * repeat
        seq = Sequence.from_iterable(values, start, RATIONAL)
        u = plain_lattice(values, start, 9)
        assert_matches(lbq_transform(seq, 2), {
            (k, n): u[3 * k + 3, n] for k in range(3) for n in range(start, seq.end_label - 3 * k + 1)
        })
        e = plain_epsilon(values, start, 6)
        assert_matches(epsilon_transform(seq, 3), {
            (k, n): e[2 * k, n] for k in range(4) for n in range(start, seq.end_label - 2 * k + 1)
        })


class TestFloat64Breakdown:
    @pytest.mark.parametrize("transform", [lbq_transform, epsilon_transform])
    def test_subnormal_input_gives_no_nonfinite_valid_cell(self, transform):
        # at this scale the difference products are subnormal, so 1/product
        # overflows to inf, and inf - inf is NaN
        s = 1e-310
        seq = Sequence.from_iterable([s * (1 + 0.5**n + (-0.3) ** n) for n in range(16)], 0, FLOAT64)
        table = transform(seq, 5)
        for n in seq.labels():
            assert table.get(0, n).value == seq.at(n)
        assert all(math.isfinite(e.value) for e in table.entries.values() if e.ok)
        assert any(e.status is Status.BREAKDOWN for e in table.entries.values())

    def test_product_underflow_breaks_down(self):
        assert rhombus([0.0, 1.0], ([1e-200], [1e-200]), True, FLOAT64) == [None]

    def test_reciprocal_overflow_breaks_down(self):
        assert rhombus([0.0, 1.0], ([1e-310],), False, FLOAT64) == [None]

    def test_bigfloat_has_no_exponent_bound(self):
        mode = BigFloat(128)
        with mode.context():
            tiny = mpmath.mpf("1e-200")
            (cell,) = rhombus([mpmath.mpf(0), mpmath.mpf(1)], ([tiny], [tiny]), True, mode)
        assert mpmath.isfinite(cell) and cell < -mpmath.mpf(10) ** 399
