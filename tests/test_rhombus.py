"""The rhombus kernel shared by the lattice and epsilon engines."""

import math
from contextlib import nullcontext
from fractions import Fraction

import mpmath
from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_mul,
    mpf_rdiv_int,
    mpf_sub,
    round_nearest,
)
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    GeneratorSpec,
    Sequence,
    SpecError,
    Status,
    WindowError,
    build_lattice,
    epsilon_transform,
    generate,
    lbq_transform,
)
from seqaccel.rhombus import (
    _add,
    _normalize,
    _reciprocal,
    fill,
    mpf_differences,
    mpf_rhombus,
    rhombus,
)
from seqaccel.tables import BREAKDOWN_ENTRY

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def factor(a, b, threshold):
    """b - a, or None when an operand is None or the difference is zero or
    below ``threshold * max(|a|, |b|)``."""
    if a is None or b is None:
        return None
    d = b - a
    return None if d == 0 or abs(d) < threshold * max(abs(a), abs(b)) else d


def cell(c, p, subtract):
    """c -/+ 1/p, or None when an input is None, p is 0 or a float result is not finite."""
    if c is None or p is None or p == 0:
        return None
    r = c - 1 / p if subtract else c + 1 / p
    return None if isinstance(r, float) and not math.isfinite(r) else r


def plain_lattice(values, start, m_max, scalar=Fraction, threshold=0):
    """{(m, n): U_m^n} cell by cell from the recursion; None marks BREAKDOWN."""
    end = start + len(values) - 1
    u = {}
    for n in range(start, end + 1):
        u[1, n], u[2, n], u[3, n] = scalar(0), scalar(n), values[n - start]
    for m in range(4, m_max + 1):
        for n in range(start, end - m + 4):
            dt = factor(u[m - 1, n], u[m - 1, n + 1], threshold)
            dm = factor(u[m - 2, n], u[m - 2, n + 1], threshold)
            u[m, n] = cell(u[m - 3, n + 1], None if dt is None or dm is None else dt * dm, True)
    return u


def plain_epsilon(values, start, j_max, scalar=Fraction, threshold=0):
    """{(j, n): eps_j^(n)} cell by cell from the recursion; None marks BREAKDOWN."""
    end = start + len(values) - 1
    e = {(-1, n): scalar(0) for n in range(start, end + 2)}
    e.update({(0, n): values[n - start] for n in range(start, end + 1)})
    for j in range(1, j_max + 1):
        for n in range(start, end - j + 1):
            e[j, n] = cell(e[j - 2, n + 1], factor(e[j - 1, n], e[j - 1, n + 1], threshold), False)
    return e


def same(a, b):
    """Equal type and value; floats must have equal bits (so 0.0 is not -0.0)."""
    return type(a) is type(b) and (a.hex() == b.hex() if isinstance(a, float) else a == b)


def assert_matches(table, cells):
    """Every entry of ``table`` equals ``cells[(k, n)]`` (None for BREAKDOWN)."""
    assert table.entries.keys() == cells.keys()
    for key, entry in table.entries.items():
        want = cells[key]
        if want is None:
            assert entry.status is Status.BREAKDOWN, key
        else:
            assert entry.status is Status.VALID and same(entry.value, want), key


def assert_engines_match_plain(seq, max_order, scalar, threshold):
    values, start = list(seq.values), seq.start_label
    u = plain_lattice(values, start, 3 * max_order + 3, scalar, threshold)
    assert_matches(lbq_transform(seq, max_order, threshold), {
        (k, n): u[3 * k + 3, n]
        for k in range(max_order + 1) for n in range(start, seq.end_label - 3 * k + 1)
    })
    e = plain_epsilon(values, start, 2 * max_order, scalar, threshold)
    assert_matches(epsilon_transform(seq, max_order, threshold), {
        (k, n): e[2 * k, n]
        for k in range(max_order + 1) for n in range(start, seq.end_label - 2 * k + 1)
    })


# Small integers times a power of two, with a power-of-two threshold, put
# many differences exactly at threshold * max(|a|, |b|), where the guard's
# strict < keeps the factor.
dyadic_cases = st.tuples(
    st.lists(st.integers(-64, 64), min_size=1, max_size=14),
    st.integers(-60, 60),
    st.integers(0, 8),
).map(lambda t: ([m * 2.0 ** t[1] for m in t[0]], 2.0 ** -t[2]))
float_cases = st.tuples(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=14),
    st.sampled_from([1e-12, 1e-3]),
)
# a slowly moving sequence: each step is a few threshold units of its size
near_threshold_cases = st.tuples(
    st.floats(0.5, 2.0),
    st.lists(st.integers(-3, 3), min_size=1, max_size=14),
    st.integers(-300, 300),
).map(lambda t: ([t[0] * (1 + i * 1e-12) * 10.0 ** t[2] for i in t[1]], 1e-12))


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
            (m // 3 - 1, n): entry.value if entry.ok else None
            for (m, n), entry in lattice.entries.items() if m % 3 == 0
        })

    @settings(max_examples=30, deadline=None)
    @given(
        head=st.lists(rationals, min_size=1, max_size=6),
        tail=rationals,
        repeat=st.integers(2, 6),
        start=st.integers(0, 3),
    )
    def test_constant_tail_poisons_like_the_plain_recursion(self, head, tail, repeat, start):
        seq = Sequence.from_iterable(head + [tail] * repeat, start, RATIONAL)
        assert_engines_match_plain(seq, 3, Fraction, 0)


class TestFloatGuard:
    @settings(max_examples=150, deadline=None)
    @given(
        case=st.one_of(dyadic_cases, float_cases, near_threshold_cases),
        start=st.integers(-2, 3),
        max_order=st.integers(0, 4),
    )
    # the first difference breaks down only against max(|a|, |b|): |b| > |a|,
    # then |a| > |b|, then exactly at the threshold, where it stays VALID
    @example(case=([1.0, 3.0, -4.0], 1.0), start=0, max_order=1)
    @example(case=([3.0, 1.0, -4.0], 1.0), start=0, max_order=1)
    @example(case=([1.0, 2.0, -4.0], 0.5), start=0, max_order=1)
    def test_float64_matches_the_plain_recursion_bit_for_bit(self, case, start, max_order):
        values, threshold = case
        seq = Sequence.from_iterable(values, start, FLOAT64)
        assert_engines_match_plain(seq, max_order, float, threshold)


@pytest.mark.parametrize("build", [lbq_transform, epsilon_transform, build_lattice])
def test_negative_max_order_rejected(build):
    with pytest.raises(WindowError, match="max_order"):
        build(Sequence.from_iterable([1, 2, 4], 0, RATIONAL), -1)


@pytest.mark.parametrize("build", [lbq_transform, epsilon_transform, build_lattice])
def test_negative_threshold_rejected(build):
    # a negative threshold would switch the relative guard off
    with pytest.raises(SpecError, match="threshold -1e-12 is negative"):
        build(Sequence.from_iterable([1, 2, 4, 7], 0, FLOAT64), 1, -1e-12)


@pytest.mark.parametrize("build", [lbq_transform, epsilon_transform, build_lattice])
def test_nonzero_threshold_rejected_in_exact_mode(build):
    # exact mode breaks down only on a zero factor, so a threshold would be ignored
    seq = Sequence.from_iterable([1, 2, 4, 7], 0, RATIONAL)
    with pytest.raises(SpecError, match="threshold 1000 has no effect in rational"):
        build(seq, 1, Fraction(1000))
    assert build(seq, 1, 0).entries == build(seq, 1).entries


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
        assert rhombus([0.0, 1.0], ([1e-200], [1e-200]), FLOAT64) == [None]

    def test_reciprocal_overflow_breaks_down(self):
        assert rhombus([0.0, 1.0], ([1e-310],), FLOAT64) == [None]

    def test_bigfloat_has_no_exponent_bound(self):
        mode = BigFloat(128)
        with mode.context():
            tiny = mpmath.mpf("1e-200")._mpf_
        (cell,) = mpf_rhombus([fzero, from_int(1)], ([tiny], [tiny]), mode.precision_bits)
        cell = mpmath.mp.make_mpf(cell)
        assert mpmath.isfinite(cell) and cell < -mpmath.mpf(10) ** 399


RULE_BITS = 64
# a carry value c and factor values p, d in each kernel's numbers
RULE_VALUES = {
    "float64": (0.7, 0.3, -1.1),
    "rational": (Fraction(2, 3), Fraction(-5, 7), Fraction(3, 11)),
    "mpf": (mpmath.mpf(1) / 3, mpmath.mpf(0.3), -mpmath.mpf(11) / 7),
}


@pytest.mark.parametrize("kernel", ["float64", "rational", "mpf"])
@pytest.mark.parametrize("width, rule", [
    (1, lambda c, p, d: c + 1 / d),
    (2, lambda c, p, d: c - 1 / (p * d)),
], ids=["one_factor_adds", "two_factors_subtract"])
def test_the_number_of_factors_names_the_rule(kernel, width, rule):
    c, p, d = RULE_VALUES[kernel]
    # cell 0 has no c, cell 1 no p, cell 2 no d, cell 3 all three
    carry, top, mid = [c, None, c, c, c], [p, None, p, p], [d, d, None, d]
    factors = (mid,) if width == 1 else (top, mid)
    with mpmath.workprec(RULE_BITS):
        r = rule(c, p, d)
    want = [None, r, None, r] if width == 1 else [None, None, None, r]
    if kernel == "mpf":
        def tuples(col):
            return [None if v is None else v._mpf_ for v in col]
        got = mpf_rhombus(tuples(carry), [tuples(f) for f in factors], RULE_BITS)
        assert got == tuples(want)
    else:
        got = rhombus(carry, factors, FLOAT64 if kernel == "float64" else RATIONAL)
        assert len(got) == len(want) and all(g is w or same(g, w) for g, w in zip(got, want))


def mpf_of(sign, man, exp):
    """The exact mpf (-1)**sign * man * 2**exp, not rounded to any precision."""
    return mpmath.mp.make_mpf(from_man_exp(-man if sign else man, exp))


def magnitude(v):
    """mag(v): 2**(mag(v)-1) <= |v| < 2**mag(v) for a nonzero mpf."""
    _, _, exp, bc = v._mpf_
    return exp + bc


@st.composite
def guard_columns(draw):
    """(precision, threshold, column): a column whose differences lie at
    gap = mag(d) - mag(t) - mag(max(|a|, |b|)) of -3 .. 2 from the
    threshold t, where the exponents may not settle the guard, with
    zero operands and BREAKDOWN (None) elements mixed in."""
    bits = draw(st.sampled_from([53, 64, 256, 1200]))

    def number(mag, extra=0, sign=None):
        """A random mpf of magnitude ``mag`` with bits + extra mantissa bits."""
        width = bits + extra
        man = draw(st.integers(2 ** (width - 1), 2**width - 1))
        return mpf_of(draw(st.booleans()) if sign is None else sign, man, mag - width)

    kind = draw(st.sampled_from(["default", "1e-30", "0", "extra bits", "inf"]))
    threshold = {
        "default": mpmath.ldexp(1, 24 - bits),
        "1e-30": mpmath.mpf(1e-30),  # a float: exact at every precision drawn
        "0": mpmath.mpf(0),
        # more mantissa bits than the working precision keeps
        "extra bits": number(draw(st.integers(-60, -10)), extra=40, sign=0),
        # fill accepts it: every factor with a nonzero operand breaks down
        "inf": mpmath.inf,
    }[kind]
    tmag = magnitude(threshold) if threshold and threshold != mpmath.inf else -40
    col = [mpmath.mpf(0) if draw(st.booleans()) else number(draw(st.integers(-60, 60)))]
    with mpmath.workprec(bits):
        for _ in range(draw(st.integers(1, 5))):
            step = draw(st.sampled_from(["gap", "gap", "gap", "zero", "none"]))
            a = col[-1] if col[-1] is not None else number(draw(st.integers(-60, 60)))
            if step == "zero":
                col.append(mpmath.mpf(0))
            elif step == "none":
                col.append(None)
            else:
                mag = magnitude(a) if a else draw(st.integers(-60, 60))
                col.append(a + number(mag + tmag + draw(st.integers(-3, 2))))
    return bits, threshold, col


class TestBigfloatGuard:
    """The exponent rule of ``mpf_differences`` against the plain guard."""

    # the band edges: gap 0 with |d| < t·M breaks down, gap -1 with |d| >= t·M
    # is kept, and |d| = t·M exactly is kept (the guard's < is strict)
    @example(case=(64, mpf_of(0, 29, -15), [mpf_of(0, 29, -5), mpf_of(0, 29, -5) + mpf_of(0, 1, -11)]))
    @example(case=(64, mpf_of(0, 1, -11), [mpf_of(0, 1, -1), mpf_of(0, 1, -1) + mpf_of(0, 3, -13)]))
    @example(case=(64, mpf_of(0, 1, -10), [mpmath.mpf(1), 1 - mpf_of(0, 1, -10)]))
    @settings(max_examples=400, deadline=None)
    @given(case=guard_columns())
    def test_exponent_rule_equals_the_plain_guard(self, case):
        bits, threshold, col = case
        # the kernel takes its precision as an argument, whatever the ambient one
        got = mpf_differences([None if v is None else v._mpf_ for v in col], bits,
                              threshold._mpf_)
        with mpmath.workprec(bits):
            want = []
            for a, b in zip(col, col[1:]):
                d = None if a is None or b is None else b - a
                want.append(None if d is None or not d
                            or abs(d) < threshold * max(abs(a), abs(b)) else d)
        assert got == [None if v is None else v._mpf_ for v in want]


@st.composite
def mpf_tuples(draw, prec):
    """A canonical ``_mpf_`` tuple: zero, or an odd mantissa of 1, narrower
    than ``prec``, of ``prec`` bits, of prec + 1 bits (a tie when rounded to
    prec) or wider, a quarter of them all ones (rounding up to a power of two)."""
    width = draw(st.sampled_from(["zero", "one", "narrow", "prec", "tie", "wide"]))
    if width == "zero":
        return fzero
    bc = {"one": 1, "narrow": draw(st.integers(1, prec - 1)), "prec": prec, "tie": prec + 1,
          "wide": draw(st.integers(prec + 2, 2 * prec + 70))}[width]
    ones = draw(st.integers(0, 3)) == 0
    man = 2**bc - 1 if ones else draw(st.integers(2 ** (bc - 1), 2**bc - 1)) | 1
    return draw(st.integers(0, 1)), man, draw(st.integers(-1500, 1500)), bc


@st.composite
def operand_pairs(draw):
    """(prec, s, t): t placed against s at an exponent offset of 0, a few
    bits or 100 and more, at a magnitude gap on either side of prec + 4
    (where mpf_add perturbs s by a sticky bit instead of adding t), as ±s
    (exact cancellation) or half a unit below s's last bit (a tie)."""
    prec = draw(st.sampled_from([53, 64, 256, 1200]))
    s, t = draw(mpf_tuples(prec)), draw(mpf_tuples(prec))
    if s[1] and t[1]:
        place = draw(st.sampled_from(["offset", "gap", "cancel", "tie", "any"]))
        if place == "offset":
            offset = draw(st.one_of(st.just(0), st.integers(-8, 8),
                                    st.integers(100, 400), st.integers(-400, -100)))
            t = (t[0], t[1], s[2] - offset, t[3])
        elif place == "gap":
            # mag(s) - mag(t) = gap, with mag = exp + bc
            gap = draw(st.sampled_from([1, -1])) * (prec + 4 + draw(st.integers(-3, 3)))
            t = (t[0], t[1], s[2] + s[3] - gap - t[3], t[3])
        elif place == "cancel":
            t = (draw(st.integers(0, 1)),) + s[1:]
        elif place == "tie":
            t = (draw(st.integers(0, 1)), 1, s[2] - 1, 1)
    return prec, s, t


def same_tuple(got, want):
    """Equal ``_mpf_`` tuples whose entries are all ints, as mpmath's are."""
    return got == want and all(type(x) is int for x in got)


class TestTupleArithmetic:
    """The kernel's helpers against mpmath.libmp at round_nearest, tuple for tuple."""

    @example(case=(53, (0, 2**53 - 3, 1, 53), (0, 1, 0, 1)))  # ties, to even up and down
    @example(case=(53, (0, 1, 0, 1), (0, 2**53 + 1, 0, 54)))  # product tie, down
    @example(case=(53, (0, 1, 0, 1), (0, 2**53 + 3, 0, 54)))  # product tie, up
    @example(case=(53, (0, 1, 0, 1), (1, 1, -200, 1)))  # sticky shortcut
    @example(case=(53, (0, 1, 0, 1), (0, 2**70 - 1, -120, 70)))  # offset 120, gap 51: exact
    # s wider than prec, where the sticky bit rounds unlike the exact sum: the
    # shortcut's edges, offset 100 and gap prec + 4, add exactly, and offset
    # 101 and gap prec + 5 take the sticky bit
    @example(case=(53, (0, 30251034114829473185658665, 0, 85),
                   (1, 155014295824321659629239811334655154197, -100, 127)))
    @example(case=(53, (0, 15803637636609560856207560975, 0, 94),
                   (0, 314067762375803014615898561290624247562967, -101, 138)))
    @example(case=(53, (0, 13251449785041906833177, 0, 74),
                   (1, 92922322604667649851196435661384303, -101, 117)))
    @example(case=(53, (0, 15803637636609560856207560975, 0, 94),
                   (0, 314067762375803014615898561290624247562967, -102, 138)))
    @example(case=(64, (1, 2**65 - 1, 7, 65), fzero))  # all ones round up
    @example(case=(256, (0, 5, -3, 3), (1, 5, -3, 3)))  # exact cancellation
    @settings(max_examples=800, deadline=None)
    @given(case=operand_pairs())
    def test_each_helper_rounds_as_mpmath(self, case):
        prec, s, t = case
        assert same_tuple(_add(s, t, prec), mpf_add(s, t, prec, round_nearest))
        assert same_tuple(_add(s, t, prec, 1), mpf_sub(s, t, prec, round_nearest))
        # the kernel's product is the exact product rounded by _normalize
        assert same_tuple(_normalize(s[0] ^ t[0], s[1] * t[1], s[2] + t[2], prec),
                          mpf_mul(s, t, prec, round_nearest))
        for v in (s, t):
            if v[1]:
                assert same_tuple(_reciprocal(v, prec), mpf_rdiv_int(1, v, prec, round_nearest))
                assert same_tuple(_reciprocal(v, prec, 1),
                                  mpf_rdiv_int(-1, v, prec, round_nearest))


def assert_live_prefix_tables(seq, max_order, scalar, threshold=None, engines_in=None):
    """lbq_transform, epsilon_transform and build_lattice each hold exactly
    their triangle's keys (so Σ(N - w k) cells), store every cell past a
    column's last VALID cell as the shared BREAKDOWN_ENTRY, and equal the
    plain recursions cell for cell.  The plain recursions run in the
    caller's context and the engines in ``engines_in`` (a context manager),
    which they leave as they found it.  Returns the number of such tail cells."""
    values, start, end = list(seq.values), seq.start_label, seq.end_label
    plain_threshold = seq.mode.default_breakdown_threshold if threshold is None else threshold
    u = plain_lattice(values, start, 3 * max_order + 3, scalar, plain_threshold)
    e = plain_epsilon(values, start, 2 * max_order, scalar, plain_threshold)
    with engines_in or nullcontext():
        prec = mpmath.mp.prec
        tables = [build(seq, max_order, threshold)
                  for build in (lbq_transform, epsilon_transform, build_lattice)]
        assert mpmath.mp.prec == prec
    cases = zip(tables, (
        {(k, n): u[3 * k + 3, n] for k in range(max_order + 1)
         for n in range(start, end - 3 * k + 1)},
        {(k, n): e[2 * k, n] for k in range(max_order + 1)
         for n in range(start, end - 2 * k + 1)},
        {(m, n): u[m, n] for m in range(1, 3 * max_order + 4)
         for n in range(start, end - max(m - 3, 0) + 1)},
    ))
    tails = 0
    for table, cells in cases:
        assert_matches(table, cells)
        last = {}
        for (k, n), entry in table.entries.items():
            if entry.ok:
                last[k] = max(n, last.get(k, n))
        for (k, n), entry in table.entries.items():
            if n > last.get(k, start - 1):
                assert entry is BREAKDOWN_ENTRY, (k, n)
                tails += 1
    return tails


class TestLivePrefix:
    """The driver stores each column's live prefix; the table fills in the tail."""

    @pytest.mark.parametrize("start", [1, 7, 16])
    def test_float64_breakdown_tails(self, start):
        seq, _ = generate(GeneratorSpec("alt_harmonic", 1000, start))
        assert assert_live_prefix_tables(seq, 50, float) > 0

    @settings(max_examples=30, deadline=None)
    @given(
        head=st.lists(rationals, min_size=1, max_size=6),
        tail=rationals,
        repeat=st.integers(2, 8),
        start=st.integers(-2, 3),
        max_order=st.integers(0, 5),
    )
    def test_rational_constant_tails(self, head, tail, repeat, start, max_order):
        seq = Sequence.from_iterable(head + [tail] * repeat, start, RATIONAL)
        assert_live_prefix_tables(seq, max_order, Fraction)

    @pytest.mark.parametrize("bits", [64, 256, 1200])
    @pytest.mark.parametrize("threshold", [None, 1e-30, 2.0**-40, "mpf"])
    @pytest.mark.parametrize("scale", [1, "1e-400"])
    def test_bigfloat_thresholds(self, bits, threshold, scale):
        # the driver converts the threshold to the mode once; the plain
        # recursion multiplies with the threshold as given.  The engines run
        # at the mode's precision whatever the ambient mpmath precision is:
        # the mode's own, 53 bits (mpmath's default) or 2000 bits.
        mode = BigFloat(bits)
        if threshold == "mpf":
            threshold = mode.convert(Fraction(1, 10**20))
        with mode.context():
            s = mpmath.mpf(scale)
            values = [s * (1 + mpmath.mpf(0.5) ** n + mpmath.mpf(-0.3) ** n) for n in range(24)]
            seq = Sequence(1, tuple(values), mode)
            for ambient in (bits, 53, 2000):
                assert_live_prefix_tables(seq, 7, mpmath.mpf, threshold, mpmath.workprec(ambient))

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.sampled_from([64, 113, 256]),
        draws=st.lists(st.tuples(st.integers(-2**70, 2**70), st.integers(-600, 600),
                                 st.integers(0, 11), st.booleans()), min_size=1, max_size=12),
        threshold=st.sampled_from([None, 0, 1e-30]),
        start=st.integers(-2, 3),
        max_order=st.integers(0, 4),
    )
    def test_bigfloat_values_spanning_exponents_and_repeating(self, bits, draws, threshold,
                                                               start, max_order):
        # each value is man·2**e for e in [-600, 600], or repeats an earlier value
        mode = BigFloat(bits)
        with mode.context():
            values = []
            for man, e, i, repeat in draws:
                values.append(values[i % len(values)] if repeat and values
                              else mpmath.ldexp(mpmath.mpf(man), e))
            seq = Sequence(start, tuple(values), mode)
            assert_live_prefix_tables(seq, max_order, mpmath.mpf, threshold,
                                      mpmath.workprec(53))

    @pytest.mark.parametrize("seeds_of", [
        lambda seq: ([0.0] * len(seq), [float(n) for n in seq.labels()], list(seq.values)),
        lambda seq: ([0.0] * len(seq), list(seq.values)),
    ], ids=["lattice", "epsilon"])
    def test_fill_returns_live_prefixes_and_nominal_lengths(self, seeds_of):
        seq, _ = generate(GeneratorSpec("alt_harmonic", 300, 1))
        seeds = seeds_of(seq)
        width = len(seeds)
        columns = fill(seq, seeds, 40, None, lambda m: True)
        assert sorted(columns) == list(range(1, width * 41 + 1))
        for m, (prefix, length) in columns.items():
            assert length == len(seq) - max(m - width, 0)
            assert len(prefix) <= length
            assert not prefix or prefix[-1] is not None
        assert any(len(prefix) < length for prefix, length in columns.values())
