"""The integer Bareiss kernel and the exact oracle built on it, in every mode."""

import random
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    NonFiniteError,
    SeqAccelError,
    Sequence,
    Status,
    WindowError,
    forward_difference,
    molecule_solution,
    phi_det,
    psi_det,
    t_determinant,
)
from seqaccel.determinants import bareiss_det
from seqaccel.formatting import to_fraction
from seqaccel.oracle import oracle_transform, t_denominator


def leibniz_det(m):
    """Sum over permutations of the signed products: the textbook definition."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        prod = 1
        for row, col in enumerate(perm):
            prod *= m[row][col]
        total += -prod if inversions % 2 else prod
    return total


def random_matrix(rng, size, bound):
    return [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]


class TestBareiss:
    def test_matches_leibniz_on_random_matrices(self):
        rng = random.Random(7)
        for size in range(1, 6):
            for bound in (1, 9, 10**6, 10**30):
                for _ in range(12):
                    m = random_matrix(rng, size, bound)
                    assert bareiss_det(m) == leibniz_det(m)

    def test_result_is_an_int(self):
        m = [[10**30, 3, -7], [2, 10**30 + 1, 5], [-1, 4, 10**29]]
        det = bareiss_det(m)
        assert type(det) is int
        assert det == leibniz_det(m)

    def test_zero_leading_pivot_needs_a_row_swap(self):
        m = [[0, 2, 3], [4, 5, 6], [7, 8, 10]]
        assert bareiss_det(m) == leibniz_det(m) == -5
        # a zero pivot again after the first elimination step
        m = [[1, 2, 3, 4], [2, 4, 7, 1], [3, 7, 1, 2], [5, 1, 2, 8]]
        assert bareiss_det(m) == leibniz_det(m)

    def test_singular(self):
        assert bareiss_det([[0, 0], [0, 0]]) == 0
        assert bareiss_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0  # zero column
        assert bareiss_det([[1, 2, 3], [2, 4, 6], [7, 8, 9]]) == 0  # dependent rows
        rng = random.Random(11)
        for size in range(3, 6):
            m = random_matrix(rng, size, 10**30)
            m[-1] = [a - 3 * b for a, b in zip(m[0], m[1])]
            assert bareiss_det(m) == 0

    def test_one_by_one_and_empty(self):
        assert bareiss_det([[-5]]) == -5
        assert bareiss_det([[0]]) == 0
        assert bareiss_det([[10**30]]) == 10**30
        assert bareiss_det([]) == 1

    def test_does_not_modify_its_rows(self):
        m = [[0, 2], [3, 4]]
        bareiss_det(m)
        assert m == [[0, 2], [3, 4]]


def reference_det(seq, k, n, orders, head=None):
    """Fraction determinant of ``head`` over rows D^order S, columns n..n+k-1.

    None if a row's window falls outside the sequence, or with no
    difference row, if the columns fall outside the sequence.
    """
    if k == -1:
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    lo = n - seq.start_label
    if lo < 0 or lo + k > len(seq):
        return None
    rows = [] if head is None else [[Fraction(head(n + j)) for j in range(k)]]
    for order in orders:
        if lo < 0 or order > len(seq) - 1:
            return None
        row = forward_difference(seq, order).values[lo:lo + k]
        if len(row) < k:
            return None
        rows.append(list(row))
    return leibniz_det(rows)


def reference_psi(v, k, n, shift=0):
    return reference_det(v, k, n, range(shift, shift + 2 * k, 2))


def reference_phi(v, k, n, shift=0):
    return reference_det(v, k, n, range(shift, shift + 2 * (k - 1), 2), head=lambda x: x)


def reference_molecule(seq, level, n):
    """(F, G) from the closed formulas, or None where a window does not fit."""
    k, r = divmod(level, 3)
    if r == 0:
        f, g = reference_psi(seq, k - 1, n, 3), reference_psi(seq, k, n)
    elif r == 1:
        f, g = reference_psi(seq, k, n, 1), reference_psi(seq, k - 1, n, 4)
        g = None if g is None else -g
    else:
        f, g = reference_psi(seq, k, n, 2), reference_phi(seq, k + 1, n, 1)
    return f, g


def oracle_or_none(fn, *args):
    try:
        return fn(*args)
    except WindowError:
        return None


values = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@settings(max_examples=40, deadline=None)
@given(items=st.lists(values, min_size=1, max_size=9), start=st.integers(-2, 3))
def test_exact_oracle_matches_fraction_reference(items, start):
    seq = Sequence(start, tuple(items), RATIONAL)
    labels = range(seq.start_label - 1, seq.end_label + 2)
    for k in range(-1, 4):
        for n in labels:
            got = oracle_or_none(psi_det, seq, k, n)
            assert got == reference_psi(seq, k, n)
            assert got is None or type(got) is Fraction
            got = oracle_or_none(phi_det, seq, k, n)
            assert got == reference_phi(seq, k, n)
            assert got is None or type(got) is Fraction
    for k in range(0, 3):
        for n in labels:
            den = reference_det(seq, k + 1, n, range(2, 2 * k + 2, 2), head=lambda x: 1)
            got = oracle_or_none(t_denominator, seq, k, n)
            assert got == den
            assert got is None or type(got) is Fraction
            if den:  # a zero denominator raises SingularError instead
                num = reference_psi(seq, k + 1, n)
                got = oracle_or_none(t_determinant, seq, k, n)
                assert got == (None if num is None else num / den)
                assert got is None or type(got) is Fraction
    mol = molecule_solution(seq, 12)
    assert mol.F
    for (level, n), f in mol.F.items():
        assert (f, mol.G[level, n]) == reference_molecule(seq, level, n)
        assert type(f) is Fraction and type(mol.G[level, n]) is Fraction


def bits(x):
    """The exact bit pattern of a float or mpf, -0.0 apart from 0.0."""
    return x.hex() if isinstance(x, float) else x._mpf_


def outcome(fn, *args):
    """bits of fn(*args), or the type of the package error it raises."""
    try:
        return bits(fn(*args))
    except SeqAccelError as exc:
        return type(exc)


inputs = st.lists(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(items=inputs, start=st.integers(-2, 3))
def test_float_oracle_is_the_rounded_exact_oracle(items, start):
    # a float or mpf input is a rational, so the exact oracle of the same
    # values, rounded once, is the right answer bit for bit
    for mode in (FLOAT64, BigFloat(128)):
        seq = Sequence.from_iterable(items, start, mode)
        exact = Sequence(start, tuple(map(to_fraction, seq.values)), RATIONAL)
        for k in range(0, 3):
            for n in seq.labels():
                want = outcome(lambda: mode.convert(t_determinant(exact, k, n)))
                assert outcome(t_determinant, seq, k, n) == want
        table = oracle_transform(seq, 2)
        for key, entry in oracle_transform(exact, 2).entries.items():
            want = outcome(mode.convert, entry.value) if entry.ok else entry.status
            if want is NonFiniteError:  # beyond the mode's range
                want = Status.BREAKDOWN
            got = table.entries[key]
            assert (bits(got.value) if got.ok else got.status) == want
