"""Determinant formulas, molecule solution, bilinear identities, kernel."""

from fractions import Fraction

import mpmath
import pytest

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    GeneratorSpec,
    KernelDegeneracyError,
    ModeUnsupportedError,
    NonFiniteError,
    SeqAccelError,
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
from seqaccel import determinants, oracle
from seqaccel.seqgen import random_rational_sequence
from seqaccel.formatting import to_fraction
from seqaccel.oracle import oracle_transform, t_denominator, verify_routes


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

    @pytest.mark.parametrize("values", [[1, 2, 3], [1, 2, 4, 8, 16, 32, 64]])
    def test_every_order_checks_its_column_window(self, values):
        # also an order whose only row is its head row, such as phi_det's
        # order 1 or t_denominator's order 0: it reads the labels n..n+k-1
        s = seq_of(values, start=3)
        for n in (s.start_label - 1, s.end_label + 1):
            for k in range(1, len(s) + 2):
                for det in (psi_det, phi_det, t_denominator, t_determinant):
                    with pytest.raises(WindowError):
                        det(s, k, n)
            for det in (t_denominator, t_determinant):
                with pytest.raises(WindowError):
                    det(s, 0, n)

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

    def test_negative_k_max_rejected_like_the_engines(self):
        seq = seq_of([1, 2, 4, 7])
        with pytest.raises(WindowError, match="max_order must be nonnegative"):
            oracle_transform(seq, -1)

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


def zero_minor_corpus(rng, count=60):
    """Random rational sequences, many of them with zero leading minors.

    Small values repeat often, a quarter of the sequences start at label
    0 and every third one ends in a constant tail, whose differences
    vanish.
    """
    for i in range(count):
        length = rng.randint(1, 16)
        values = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(length)]
        if i % 3 == 0:
            cut = rng.randint(1, length)
            values[cut:] = [values[cut - 1]] * (length - cut)
        yield Sequence.from_iterable(values, (0, 1, -2, 3)[i % 4], RATIONAL)


def count_fallbacks(monkeypatch):
    """A list that grows by one for each cell the oracle takes as its own ``bareiss_det``.

    A label-column route calls it only where condensation would divide
    by zero; the per-cell determinants call it for every cell, so a test
    counts around a route call alone.
    """
    calls = []
    bareiss_det = oracle.bareiss_det
    monkeypatch.setattr(oracle, "bareiss_det", lambda rows: calls.append(len(rows)) or bareiss_det(rows))
    return calls


# every kind of determinant the routes read, as (shift, head)
KINDS = ((0, None), (1, None), (2, None), (3, None), (4, None), (1, "labels"), (2, "ones"))


class TestOrders:
    def test_every_cell_is_the_determinant_of_its_block(self, rng, monkeypatch):
        # each order is condensed from the two orders below it; every cell
        # must be the determinant of its own block, also where a divisor is
        # zero, and each column must be the prefix of labels whose window fits;
        # a column's one power is the number of difference rows of its blocks
        fallback = count_fallbacks(monkeypatch)
        corpus = list(zero_minor_corpus(rng))
        for _ in range(20):
            length, start = rng.randint(1, 24), rng.randint(-3, 3)
            coefficients = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
            corpus.append(seq_of([sum(c * n**i for i, c in enumerate(coefficients)) for n in range(length)], start))
            values = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(length)]
            cut = rng.randint(1, length)
            corpus.append(seq_of(values[:cut] + [values[cut - 1]] * (length - cut), start))  # a constant tail
        for seq in corpus:
            tops = {kind: rng.randint(-1, 9) for kind in rng.sample(KINDS, rng.randint(1, len(KINDS)))}
            diffs, orders = oracle._orders(seq, tops)
            assert orders.keys() == tops.keys()
            for (shift, head), top in tops.items():
                assert len(orders[shift, head]) == top + 2
                for k, column in enumerate(orders[shift, head], -1):
                    labels = [n for n in seq.labels() if k < 1 or oracle._fits(seq, diffs, k, n, shift, head)]
                    assert labels == list(seq.labels())[:len(labels)]
                    blocks = [oracle._block(seq, diffs, k, n, shift, head) for n in labels] if k > 0 else []
                    assert column == (list(map(determinants.bareiss_det, blocks)) if k > 0 else [k + 1] * len(labels))
                    assert all(len(block) - (head is not None) == oracle._power(k, head) for block in blocks)
                    assert k > 0 or oracle._power(k, head) == 0
        assert fallback  # the corpus runs the zero-divisor fallback


class TestOracleTransform:
    def test_every_cell_is_the_per_cell_ratio(self, rng, monkeypatch):
        # the table comes from condensed label columns; each cell must be
        # the ratio t_determinant takes alone, and a cell where that raises
        # must be BREAKDOWN
        fallback = count_fallbacks(monkeypatch)
        fallback_cells = 0
        for seq in zero_minor_corpus(rng):
            k_max = (len(seq) + 2) // 3  # one order past the longest column
            before = len(fallback)
            table = oracle_transform(seq, k_max)
            fallback_cells += len(fallback) - before
            keys = [(k, n) for k in range(k_max + 1)
                    for n in range(seq.start_label, seq.end_label - 3 * k + 1)]
            assert list(table.entries) == keys
            for k, n in keys:
                entry = table.get(k, n)
                try:
                    want = t_determinant(seq, k, n)
                except SingularError:
                    assert entry.status is Status.BREAKDOWN
                    continue
                assert entry.ok and type(entry.value) is Fraction
                assert entry.value == want
        assert fallback_cells > 0  # the corpus runs the zero-divisor fallback


def closed_forms(seq, max_level):
    """{(level, n): (F, G)} for levels 0..max_level, one psi_det or phi_det of D^shift S per determinant.

    A cell whose F or G raises WindowError is left out.
    """
    shifted = {shift: forward_difference(seq, shift) for shift in range(min(5, len(seq)))}

    def det(fn, shift, k, n):
        if k <= 0:
            return fn(seq, k, n)  # the conventions -1 -> 0 and 0 -> 1 read no window
        if shift not in shifted:
            raise WindowError(f"D^{shift} S does not exist")
        if fn is phi_det and k == 1:
            # level 2 is the seed level: G_2 = Phi_1(D S) = n = U_2^n is
            # its label row alone, defined at every label of S (the last too)
            return Fraction(n)
        return fn(shifted[shift], k, n)

    forms = (
        lambda k, n: (det(psi_det, 3, k - 1, n), det(psi_det, 0, k, n)),
        lambda k, n: (det(psi_det, 1, k, n), -det(psi_det, 4, k - 1, n)),
        lambda k, n: (det(psi_det, 2, k, n), det(phi_det, 1, k + 1, n)),
    )
    cells = {}
    for level in range(max_level + 1):
        k, r = divmod(level, 3)
        for n in seq.labels():
            try:
                cells[level, n] = forms[r](k, n)
            except WindowError:
                continue
    return cells


def per_cell_routes(seq, k_max):
    """verify_routes' (cells, mismatches) from one t_determinant and two psi_det calls per cell."""
    exact = Sequence(seq.start_label, tuple(map(to_fraction, seq.values)), RATIONAL)
    lattice = lbq_transform(seq, k_max)
    cells, mismatches = 0, []
    for k in range(1, k_max + 1):
        for n in seq.labels():
            entry = lattice.get(k, n)
            if not entry.ok:
                continue
            cells += 1
            try:
                f = psi_det(forward_difference(exact, 3), k, n)
                agree = f != 0 and entry.value == t_determinant(exact, k, n) == psi_det(exact, k + 1, n) / f
            except SeqAccelError:
                agree = False
            if not agree:
                mismatches.append((k, n))
    return cells, mismatches


class TestMoleculeSolution:
    def test_every_cell_is_the_per_cell_closed_form(self, rng, monkeypatch):
        # every Psi and Phi comes from a condensed label column per
        # (shift, head); each must be the determinant psi_det or phi_det
        # takes alone, with the same keys in the same order
        calls = count_fallbacks(monkeypatch)
        fallback_cells = 0
        corpus = list(zero_minor_corpus(rng)) + [
            random_rational_sequence(rng, rng.randint(1, 30), i % 3) for i in range(4)]
        for seq in corpus:
            before = len(calls)
            mol = molecule_solution(seq, 3 * len(seq))
            fallback_cells += len(calls) - before
            want = closed_forms(seq, 3 * len(seq))
            assert list(mol.F) == list(mol.G) == list(want)
            assert [(mol.F[key], mol.G[key]) for key in want] == list(want.values())
        assert fallback_cells > 0  # the corpus runs the zero-divisor fallback

    def test_each_max_level_reads_the_cells_of_the_deepest(self, rng):
        # the difference table is only as deep as the requested levels read,
        # so a lower max_level builds a shallower one; its cells must be the
        # deepest solution's cells of those levels, also where D^shift S is
        # missing (a length-1 sequence has no level 2) or the table stops
        # short of D^shift S (levels 0..2 read no difference row)
        for seq in list(zero_minor_corpus(rng, 30)) + [seq_of([3]), seq_of([1, 2])]:
            deepest = molecule_solution(seq, 3 * len(seq))
            for max_level in range(3 * len(seq)):
                mol = molecule_solution(seq, max_level)
                assert mol.F == {key: f for key, f in deepest.F.items() if key[0] <= max_level}
                assert mol.G == {key: g for key, g in deepest.G.items() if key[0] <= max_level}

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
            if (4, n) in mol.F and d1.start_label <= n <= d1.end_label:
                assert mol.F[(4, n)] == d1.at(n)

    def test_level_two_is_the_seed_level_at_every_label(self):
        # G_2 = Phi_1(D S) reads only its label row, so the last label has a
        # cell although D S has none there (phi_det of D S at 3 is a WindowError)
        seq = seq_of([1, 2, 4, 8], start=0)
        with pytest.raises(WindowError):
            phi_det(forward_difference(seq), 1, 3)
        mol = molecule_solution(seq, 2)
        assert mol.G[2, 3] == 3
        assert all(mol.ratio(2, n) == n for n in seq.labels())

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


class TestVerifyRoutes:
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64], ids=["rational", "float64"])
    def test_same_result_as_the_per_cell_routes(self, rng, mode):
        # a float64 lattice value is compared with the exact routes, so
        # rounding shows as mismatches, which must be the per-cell ones
        mismatches = 0
        for seq in zero_minor_corpus(rng, 30):
            seq = Sequence.from_iterable(seq.values, seq.start_label, mode)
            k_max = (len(seq) + 2) // 3
            got = verify_routes(seq, k_max)
            assert got == per_cell_routes(seq, k_max)
            mismatches += len(got[1])
        assert (mismatches > 0) == (mode is FLOAT64)

    def test_a_molecule_mismatch_alone_is_reported(self, rng, monkeypatch):
        # the lattice and the T route agree; G off by one at level 9 = 3k + 3
        # must make every compared cell of order k = 2, and only those, a mismatch
        sequences = [random_rational_sequence(rng, 12, i % 3) for i in range(5)]
        assert all(verify_routes(seq, 3)[1] == [] for seq in sequences)
        molecule = oracle._molecule

        def perturbed(*args):
            diffs, orders, F, G = molecule(*args)
            column, power = G[9]
            G[9] = [g + 1 for g in column], power
            return diffs, orders, F, G

        monkeypatch.setattr(oracle, "_molecule", perturbed)
        for seq in sequences:
            lattice = lbq_transform(seq, 3)
            compared = [(k, n) for k in range(1, 4) for n in seq.labels() if lattice.get(k, n).ok]
            cells, mismatches = verify_routes(seq, 3)
            assert cells == len(compared)
            assert mismatches == [(k, n) for k, n in compared if k == 2] != []

    def test_shared_orders_keep_their_ones_on_short_sequences(self, rng):
        # T and the molecule read one _orders call whose kinds share columns:
        # the ones column is order 0 of every kind and order 1 of the
        # denominator's (2, "ones").  Where D^shift S is missing, the molecule
        # reads an empty column; no kind may lose its ones column to that, and
        # the routes must stay the per-cell ones
        corpus = [random_rational_sequence(rng, length, i % 3) for length in range(1, 5) for i in range(6)]
        corpus += [seq for seq in zero_minor_corpus(rng) if len(seq) <= 4]
        for seq in corpus:
            k_max = (len(seq) + 2) // 3
            _, orders, _, _ = oracle._molecule(seq, range(3 * k_max + 4), oracle._t_tops(k_max))
            assert all(columns[1] == [1] * len(seq) for columns in orders.values())
            assert orders[2, "ones"][2] == [1] * len(seq)
            assert verify_routes(seq, k_max) == per_cell_routes(seq, k_max)


class TestTableDepth:
    @pytest.mark.parametrize("call, arg, rows", [
        (check_bilinear, 3, 4),
        (molecule_solution, 6, 4),
        (verify_routes, 1, 4),
        (oracle_transform, 2, 5),
    ], ids=["check_bilinear", "molecule_solution", "verify_routes", "oracle_transform"])
    def test_each_table_is_as_deep_as_the_orders_it_serves(self, monkeypatch, call, arg, rows):
        # the molecule's levels 0..6 read difference orders up to 3, T_1
        # up to 2 and T_2 up to 4; a table of rows D^0..D^d has d + 1 rows,
        # and none may be the whole table of 60 rows.  Each call builds one
        # table: verify_routes reads T and the molecule from the same one
        seq, _ = generate(GeneratorSpec("alt_harmonic", 60, 1, RATIONAL))
        built = []
        difference_table = oracle._difference_table

        def recording(*args):
            diffs = difference_table(*args)
            built.append(len(diffs.rows))
            return diffs

        monkeypatch.setattr(oracle, "_difference_table", recording)
        call(seq, arg)
        assert len(built) == 1
        assert max(built) == rows


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

    @pytest.mark.parametrize("perturb", [0, 1], ids=["exact", "perturbed"])
    def test_residuals_are_those_of_the_molecule_fractions(self, rng, monkeypatch, perturb):
        # the residuals are taken on integers over powers of the scale; they
        # must equal the residuals of molecule_solution's Fractions, also
        # when every determinant of order >= 1 is off by one and the
        # residuals are nonzero
        orders = oracle._orders

        def perturbed(*args):
            diffs, columns = orders(*args)
            return diffs, {kind: cs[:2] + [[d + perturb for d in c] for c in cs[2:]]
                           for kind, cs in columns.items()}

        monkeypatch.setattr(oracle, "_orders", perturbed)
        forms = {
            "fg_fg_ff": lambda F, G, k, n: (
                F[k, n] * G[k, n + 1] - F[k, n + 1] * G[k, n] - F[k + 1, n] * F[k - 1, n + 1]),
            "fg_cross": lambda F, G, k, n: (
                F[k + 2, n] * G[k - 1, n + 1] - F[k - 1, n + 1] * G[k + 2, n] - F[k + 1, n + 1] * F[k, n]),
            "ff_ff_ff": lambda F, G, k, n: (
                F[k, n] * F[k + 2, n + 1] - F[k, n + 1] * F[k + 2, n] - F[k + 3, n] * F[k - 1, n + 1]),
        }
        nonzero = 0
        for seq in [random_rational_sequence(rng, 14, i % 3) for i in range(4)] + list(zero_minor_corpus(rng, 12)):
            k_max = 9
            report = check_bilinear(seq, k_max)
            mol = molecule_solution(seq, k_max + 3)
            want = {name: {} for name in forms}
            for name, form in forms.items():
                for k in range(1, k_max + 1):
                    for n in seq.labels():
                        try:
                            want[name][k, n] = form(mol.F, mol.G, k, n)
                        except KeyError:
                            pass
            assert report.residuals == want
            assert all(type(r) is Fraction for eq in report.residuals.values() for r in eq.values())
            assert report.checked == sum(map(len, want.values()))
            assert report.zero_f_cells == [key for key, f in mol.F.items() if f == 0 and key[0] > 0]
            nonzero += sum(r != 0 for eq in report.residuals.values() for r in eq.values())
        assert (nonzero > 0) == bool(perturb)

    def test_residual_aligns_unequal_powers(self):
        # operands are (column of integers, power of the scale), one power per
        # column; the three products' powers differ only at low levels, so a
        # direct call shows the alignment, once per column for every cell
        pairs = ((([3, 1], 0), ([1, 1], 0)), (([1, 5], 1), ([2, 2], 0)), (([1, 0], 0), ([1, 5], 2)))
        assert oracle._residuals(10, pairs) == [3 - Fraction(2, 10) - Fraction(1, 100), 0]
        assert oracle._residuals(10, ((([1], 1), ([1], 0)), (([1], 0), ([1], 1)), (([0], 0), ([5], 3)))) == [0]
        assert oracle._residuals(10, ((([1], 1), ([1], 0)), (([1], 0), ([1], 1)), (([], 0), ([5], 3)))) == []
        assert oracle._residuals(10, pairs)[1] is oracle._ZERO

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


class TestFloatModes:
    def test_float64_cell_is_the_rounded_exact_transform(self):
        # elimination in floats gave 0.6931471113585406 here; the lattice
        # gives 0.6931471805813529
        seq, _ = generate(GeneratorSpec("alt_harmonic", 30, 1))
        assert t_determinant(seq, 8, 1) == 0.6931471805813528
        assert oracle_transform(seq, 8).get(8, 1).value == 0.6931471805813528

    def test_float64_result_beyond_the_range_is_an_error(self):
        values = [1e300, 0.0, 0.0, 1e300]  # Psi_2 = 1e300 * 1e300
        with pytest.raises(NonFiniteError):
            psi_det(seq_of(values, mode=FLOAT64), 2, 0)
        assert psi_det(seq_of(values), 2, 0) == Fraction(1e300) ** 2
        # G_6^0 is that Psi_2, so the float64 molecule leaves the cell out
        assert (6, 0) not in molecule_solution(seq_of(values, mode=FLOAT64), 6).G
        assert molecule_solution(seq_of(values), 6).G[6, 0] == Fraction(1e300) ** 2

    def test_bigfloat_molecule_ratio_is_rounded_at_the_mode_precision(self):
        # mpmath's ambient precision stays at 53 bits; G/F keeps 256
        mode = BigFloat(256)
        seq, _ = generate(GeneratorSpec("alt_harmonic", 12, 1, mode))
        mol = molecule_solution(seq, 9)
        ratios = {key: mol.ratio(*key) for key in mol.F if mol.F[key] != 0}
        with mpmath.workprec(256):
            want = {key: mpmath.mpf(mol.G[key]) / mpmath.mpf(mol.F[key]) for key in ratios}
        assert {key: v._mpf_ for key, v in ratios.items()} == {
            key: v._mpf_ for key, v in want.items()}
        assert all(type(v) is mode.value_type for v in ratios.values())
        assert max(v._mpf_[3] for v in ratios.values()) > 200

    def test_check_bilinear_is_exact_only(self):
        seq = seq_of([1.0, 0.5, 0.75, 0.625, 0.6875, 0.65625, 0.671875], mode=FLOAT64)
        with pytest.raises(ModeUnsupportedError, match="float64"):
            check_bilinear(seq, 2)
