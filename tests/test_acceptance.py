"""Acceptance suite.

Each test prints one PASS line on success; tolerances are fixed here
and nowhere else.  Reference cells match when the computed value is
within one unit of the last printed decimal of the reference string.
"""

import random
import time
from fractions import Fraction

from reference_tables import TABLE_LN2, TABLE_PI, TABLE_ZETA2, ZETA2_50

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    Classification,
    GeneratorSpec,
    Sequence,
    Status,
    build_lattice,
    epsilon_transform,
    check_bilinear,
    estimate_rho,
    generate,
    kernel_construct,
    lbq_transform,
)
from seqaccel.formatting import to_fraction
from seqaccel.oracle import verify_routes
from seqaccel.seqgen import random_rational_sequence


def cell_matches(entry, printed):
    """Within one unit in the last printed decimal."""
    if entry.status is not Status.VALID:
        return False
    digits = len(printed.split(".")[1])
    diff = abs(to_fraction(entry.value) - Fraction(printed))
    return diff <= Fraction(1, 10**digits)


def window_fits(k, n, count, start_label=1):
    return n + 3 * k <= start_label + count - 1


def reproduce(family, count, k_max, mode):
    seq, _ = generate(GeneratorSpec(family, count, 1, mode))
    return lbq_transform(seq, k_max)


def check_reference_table(family, count, k_max, table_ref):
    """All reference cells computable from the prefix, FLOAT64 first,
    escalating to 128-bit floats if FLOAT64 misses any cell."""
    for mode in (FLOAT64, BigFloat(128)):
        table = reproduce(family, count, k_max, mode)
        missed = [
            (k, n)
            for (k, n), printed in table_ref.items()
            if window_fits(k, n, count) and not cell_matches(table.get(k, n), printed)
        ]
        if not missed:
            return mode
    raise AssertionError(f"cells {missed} do not match in any mode")


def test_criterion_1_pi_example():
    start = time.perf_counter()
    mode = check_reference_table("archimedes_pi", 13, 4, TABLE_PI)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: pi example reproduced ({mode.name}, {elapsed:.2f}s)")


def test_criterion_2_ln2_example():
    start = time.perf_counter()
    mode = check_reference_table("alt_harmonic", 16, 5, TABLE_LN2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    # the reference table's remaining printed cells need S_17..S_18;
    # verify them too from a longer prefix
    table = reproduce("alt_harmonic", 18, 5, FLOAT64)
    rest = [
        (k, n) for (k, n) in TABLE_LN2 if not window_fits(k, n, 16)
    ]
    assert rest
    for k, n in rest:
        assert cell_matches(table.get(k, n), TABLE_LN2[(k, n)])
    print(f"\n[PASS] criterion 2: ln2 example reproduced ({mode.name}, {elapsed:.2f}s)")


def test_criterion_3_zeta2_example():
    mode = check_reference_table("zeta2", 22, 7, TABLE_ZETA2)

    # non-acceleration of logarithmic convergence: row-1 ratio from the
    # stated prefix, rows 2..5 need a longer prefix for the k=7 column
    limit = Fraction(ZETA2_50[:40])
    seq, _ = generate(GeneratorSpec("zeta2", 26, 1, RATIONAL))
    table = lbq_transform(seq, 7)
    for n in range(1, 6):
        t7 = to_fraction(table.get(7, n).value)
        t0 = seq.at(n)
        ratio = abs(t7 - limit) / abs(t0 - limit)
        assert ratio > Fraction(5, 100), (n, float(ratio))
    print(f"\n[PASS] criterion 3: zeta2 example reproduced, no acceleration ({mode.name})")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(1)
    compared = 0
    for _ in range(100):
        seq = random_rational_sequence(rng, length=12, start_label=rng.randint(0, 2))
        cells, mismatches = verify_routes(seq, 3)
        assert mismatches == [], mismatches
        compared += cells
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert compared > 1000
    print(f"\n[PASS] criterion 4: three routes agree exactly on "
          f"{compared} cells across 100 sequences ({elapsed:.1f}s)")


def test_criterion_5_bilinear_identities():
    rng = random.Random(2)
    total = 0
    for _ in range(20):
        seq = random_rational_sequence(rng, length=14)
        report = check_bilinear(seq, 9)
        assert report.checked > 0
        assert report.all_zero
        total += report.checked
    print(f"\n[PASS] criterion 5: all bilinear residuals exactly zero ({total} cells)")


def test_criterion_6_kernel_exactness():
    cases = {
        1: (Fraction(1), [Fraction(1, 2)], [Fraction(1)]),
        2: (Fraction(0), [Fraction(1, 2), Fraction(1, 3)], [Fraction(1), Fraction(1)]),
        3: (Fraction(-2), [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)],
            [Fraction(3), Fraction(1, 2), Fraction(1)]),
    }
    for k, (limit, ratios, weights) in cases.items():
        seq = kernel_construct(limit, ratios, weights, 0, 3 * k + 4)
        table = lbq_transform(seq, k)
        hits = table.column(k)
        assert hits, f"k={k}: no computable cells"
        for n, value in hits:
            assert value == limit, (k, n)
    print("\n[PASS] criterion 6: certified kernel sequences map exactly to their limit")


def test_criterion_7_epsilon_kernel():
    for k in (1, 2, 3):
        limit = Fraction(2, 7)
        ratios = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 7)][:k]
        weights = [Fraction(1), Fraction(1, 3), Fraction(2)][:k]
        values = [
            limit + sum(c * r**n for c, r in zip(weights, ratios))
            for n in range(2 * k + 5)
        ]
        seq = Sequence(0, tuple(values), RATIONAL)
        table = epsilon_transform(seq, k)
        for n in seq.labels():
            assert table.get(0, n).value == seq.at(n)
        hits = table.column(k)
        assert hits
        for n, value in hits:
            assert value == limit
    print("\n[PASS] criterion 7: epsilon algorithm exact on k-term geometric sums, gauge holds")


def test_criterion_8_invariance_suite():
    rng = random.Random(3)
    c = Fraction(5, 3)
    lam = Fraction(-7, 2)
    for _ in range(20):
        seq = random_rational_sequence(rng, length=10)

        base = build_lattice(seq, 2)
        shifted = build_lattice(Sequence(seq.start_label + 4, seq.values, RATIONAL), 2)
        for (m, n), entry in base.entries.items():
            other = shifted.get(m, n + 4)
            assert other.status == entry.status
            if entry.ok:
                expected = entry.value + 4 if m % 3 == 2 else entry.value
                assert other.value == expected

        t0 = lbq_transform(seq, 2)
        t_shift = lbq_transform(seq.map(lambda v: v + c), 2)
        t_scale = lbq_transform(seq.map(lambda v: v * lam), 2)
        for key, entry in t0.entries.items():
            assert t_shift.entries[key].status == entry.status
            assert t_scale.entries[key].status == entry.status
            if entry.ok:
                assert t_shift.entries[key].value == entry.value + c
                assert t_scale.entries[key].value == entry.value * lam
    print("\n[PASS] criterion 8: label-shift, translativity, homogeneity exact on 20 inputs")


def test_criterion_9_classification():
    seq, limit = generate(GeneratorSpec("archimedes_pi", 20, 1))
    rep = estimate_rho(seq, limit)
    assert rep.classification is Classification.LINEAR
    assert not rep.negative_rho

    seq, limit = generate(GeneratorSpec("alt_harmonic", 40, 1))
    rep = estimate_rho(seq, limit)
    assert rep.classification is Classification.LINEAR
    assert rep.negative_rho

    seq, limit = generate(GeneratorSpec("zeta2", 60, 1))
    rep = estimate_rho(seq, limit)
    assert rep.classification is Classification.LOGARITHMIC

    seq, limit = generate(GeneratorSpec("geometric", 20, 0, z=Fraction(1, 2)))
    rep = estimate_rho(seq, limit)
    assert rep.classification is Classification.LINEAR
    assert abs(rep.rho - 0.5) <= 0.05
    print("\n[PASS] criterion 9: all four classifications correct")
