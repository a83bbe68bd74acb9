"""Determinant formulas, molecule solution, bilinear identities, kernel."""

from fractions import Fraction

import pytest


from seqaccel import (
    FLOAT64,
    RATIONAL,
    GeneratorSpec,
    KernelDegeneracyError,
    Sequence,
    SingularError,
    SpecError,
    Status,
    WindowError,
    check_bilinear,
    forward_difference,
    generate,
    kernel_coefficients,
    kernel_construct,
    lbq_transform,
    molecule_solution,
    phi_det,
    psi_det,
    t_determinant,
)
from seqaccel.seqgen import random_rational_sequence
from seqaccel.oracle import t_denominator


def seq_of(values, start=0, mode=RATIONAL):
    return Sequence.from_iterable(values, start, mode)


class TestPsiPhi:
    def test_conventions(self):
        v = seq_of([1, 2, 3, 4])
        assert psi_det(v, -1, 0) == 0
        assert psi_det(v, 0, 0) == 1
        assert phi_det(v, -1, 0) == 0
        assert phi_det(v, 0, 0) == 1

    def test_order_one(self):
        v = seq_of([7, 8, 9], start=4)
        assert psi_det(v, 1, 5) == 8
        assert phi_det(v, 1, 5) == 5  # single entry is the label itself

    def test_psi_two_by_two(self):
        v = seq_of([0, 1, 3, 10])
        # second differences are [1, 5]; det [[0, 1], [1, 5]] = -1
        assert psi_det(v, 2, 0) == -1

    def test_phi_two_by_two(self):
        v = seq_of([0, 1, 3])
        assert phi_det(v, 2, 0) == 0

    def test_window_errors(self):
        v = seq_of([1, 2, 3])
        with pytest.raises(WindowError):
            psi_det(v, 2, 0)  # needs v_0..v_3
        w = seq_of([1, 2, 4, 8, 16, 32, 64], start=3)
        for det, k in ((psi_det, 1), (psi_det, 2), (phi_det, 2)):
            with pytest.raises(WindowError):
                det(w, k, 2)  # label 2 is below the start label
        for det in (psi_det, phi_det):
            with pytest.raises(WindowError):
                det(w, -2, 3)  # no order below -1

    def test_int_valued_rational_sequence_stays_exact(self):
        s = Sequence(0, (0, 1, 3, 10, 4, 7, 2), RATIONAL)
        for value, want in ((psi_det(s, 3, 0), 775), (phi_det(s, 3, 0), 1),
                            (t_determinant(s, 1, 0), Fraction(-1, 4))):
            assert type(value) is Fraction
            assert value == want


class TestTDeterminant:
    def test_gauge(self):
        s = seq_of([Fraction(3, 2), 2, 3, 5])
        assert t_determinant(s, 0, 0) == Fraction(3, 2)

    def test_geometric_kernel(self):
        s = seq_of([1 + Fraction(1, 2) ** n for n in range(8)])
        for n in range(5):
            assert t_determinant(s, 1, n) == 1

    def test_pi_example_cell(self):
        seq, _ = generate(GeneratorSpec("archimedes_pi", 13, 1))
        assert t_determinant(seq, 2, 3) == pytest.approx(3.1415926509, abs=1e-9)

    def test_window_errors(self):
        s = seq_of([1 + Fraction(1, 2) ** n for n in range(8)], start=2)
        for k, n in ((-1, 2), (0, 1), (1, 1)):  # negative order, label below start
            with pytest.raises(WindowError):
                t_determinant(s, k, n)

    def test_singular_denominator(self):
        s = seq_of([1, 2, 3, 4, 5, 6])  # second differences vanish
        with pytest.raises(SingularError):
            t_determinant(s, 1, 0)

    def test_denominator_is_psi_of_third_differences(self, rng):
        # the ones-bordered denominator collapses to Psi_k of the third
        # differences; both evaluations must agree exactly
        for _ in range(10):
            seq = random_rational_sequence(rng, length=12)
            d3 = forward_difference(seq, 3)
            for k in range(4):
                if 3 * k > len(seq) - 1:
                    continue
                n = seq.start_label
                assert t_denominator(seq, k, n) == psi_det(d3, k, n)


class TestMoleculeSolution:
    def test_initial_levels(self, rng):
        seq = random_rational_sequence(rng, length=8)
        mol = molecule_solution(seq, 4)
        d1 = forward_difference(seq)
        for n in seq.labels():
            assert mol.F[(1, n)] == 1
            assert mol.F[(2, n)] == 1
            assert mol.F[(3, n)] == 1
            assert mol.G[(1, n)] == 0
            assert mol.G[(2, n)] == n
            assert mol.G[(3, n)] == seq.at(n)
            if (4, n) in mol.F and d1.has(n):
                assert mol.F[(4, n)] == d1.at(n)

    def test_ratio_matches_determinant_route(self, rng):
        for _ in range(10):
            seq = random_rational_sequence(rng, length=12)
            mol = molecule_solution(seq, 12)
            for k in range(1, 4):
                for n in seq.labels():
                    try:
                        expected = t_determinant(seq, k, n)
                    except (SingularError, WindowError):
                        continue
                    ratio = mol.ratio(3 * k + 3, n)
                    if ratio is not None:
                        assert ratio == expected


class TestBilinear:
    def test_residuals_vanish_exactly(self, rng):
        for _ in range(5):
            seq = random_rational_sequence(rng, length=14)
            report = check_bilinear(seq, 9)
            assert report.checked > 0
            assert report.all_zero

    def test_specific_cells_present(self, rng):
        seq = random_rational_sequence(rng, length=14)
        report = check_bilinear(seq, 4)
        assert report.residuals["fg_fg_ff"][(3, 0)] == 0
        assert report.residuals["ff_ff_ff"][(4, 1)] == 0

    def test_degenerate_input_flags_zero_f(self):
        seq = seq_of([2] * 10)
        report = check_bilinear(seq, 3)
        assert report.zero_f_cells  # F_{3k} = Psi(0) determinants vanish
        assert report.all_zero


class TestKernelConstruct:
    def test_order_one_coefficient(self):
        (a1,) = kernel_coefficients([Fraction(1, 2)])
        assert a1 == Fraction(1) / (Fraction(1, 2) - 1) ** 2
        assert a1 == 4

    def test_order_one_sequence_hits_limit(self):
        s = kernel_construct(1, [Fraction(1, 2)], [1], 0, 10)
        assert s.at(3) == 1 + Fraction(1, 8)
        for n in range(7):
            assert t_determinant(s, 1, n) == 1

    def test_ratio_one_rejected(self):
        with pytest.raises(KernelDegeneracyError):
            kernel_construct(0, [Fraction(1)], [1], 0, 8)

    def test_order_two_exact(self):
        s = kernel_construct(0, [Fraction(1, 2), Fraction(1, 3)], [1, 1], 0, 12)
        table = lbq_transform(s, 2)
        hit = table.column(2)
        assert hit
        for n, value in hit:
            assert value == 0

    def test_invalid_inputs(self):
        with pytest.raises(SpecError):
            kernel_construct(0, [Fraction(1, 2)], [], 0, 5)
        with pytest.raises(SpecError):
            kernel_construct(0, [Fraction(1, 2), Fraction(1, 2)], [1, 1], 0, 5)
        with pytest.raises(SpecError):
            kernel_construct(0, [Fraction(1, 2)], [0], 0, 5)


class TestFloatCondition:
    def test_pivoted_condition_indicator(self):
        from seqaccel.determinants import pivoted_det

        res = pivoted_det([[1.0, 0.0], [0.0, 1e-8]])
        assert res.value == pytest.approx(1e-8)
        assert res.condition == pytest.approx(1e8)
