#!/usr/bin/env python3
"""Print one SHA-256 digest of the transform tables for each case of a fixed corpus.

Usage: python scripts/cell_digest.py

A case is a sequence, a mode, a maximum order and a breakdown threshold.
Its digest covers the ``lbq_transform``, ``epsilon_transform`` and
``build_lattice`` tables of that case, or for an oracle case the
``oracle_transform`` table: every cell's key in table order,
its status, the type of its value and the exact value, written as
``float.hex``, the mpf's ``(sign, mantissa, exponent, bitcount)`` or the
Fraction's ``p/q``.  Two trees that print the same lines compute
bit-identical cells on the corpus; ``tests/cell_digests.txt`` holds the
expected lines.

The corpus:
  * the paper's three tables (pi, ln 2, zeta(2)) in float64, bigfloat256
    and rational mode (pi has no rational mode), from the engines and
    from the determinant oracle, and from the engines in float64 and
    bigfloat256 at breakdown threshold 0;
  * a geometric-plus-correction sequence at 64, 128 and 256 bits, for
    every breakdown threshold and scale below, from 1e-400 to 1e300,
    and in float64 for every threshold at the scales within its range;
  * at 1200 bits, where the default threshold is far below any float:
    the paper's ln 2 table, and the geometric sequence at scales 1e-400
    and 1 for every breakdown threshold;
  * the float64 ``alt_harmonic`` N=1000, K=50 tables of the benchmark
    from the start labels 1, 7 and 16;
  * rational sequences that end in a constant tail;
  * the ``oracle_transform`` table of ``alt_harmonic`` at N=60, K=19 in
    rational and float64 mode;
  * seeded random rational sequences and one with a constant tail (its
    leading minors vanish), each digested as its ``molecule_solution``
    F and G up to level k+3, in key order, and its ``check_bilinear``
    report up to order k: the residuals, ``checked`` and
    ``zero_f_cells``;
  * the same molecule and bilinear digests up to level 42 for rational
    ``alt_harmonic`` at N=40, a seeded random length-30 sequence and a
    length-24 sequence with a constant tail (its zero minors start
    at higher orders);
  * the ``verify_routes`` result, cells compared and mismatches, of
    rational ``alt_harmonic`` at N=60, K=19;
  * ``generate``'s values and limit for each of the six families in
    float64, bigfloat at 64, 256 and 1200 bits and rational mode, a
    ``None`` limit and a ``ModeUnsupportedError`` recorded as such, and
    ``archimedes_pi`` from the start labels -1022 (a ``SpecError`` in
    the float modes, recorded as such) and 1021, count 3;
  * ``seqaccel transform`` (lbq, epsilon and oracle) and ``seqaccel
    compare``, run in-process through ``cli.main`` on the paper's three
    tables in float64, bigfloat at 128 and 256 bits and rational mode
    (pi ends in an error there, and compare takes a decimal limit),
    each in markdown, csv and tsv, at the paper's decimal places and
    at ``--digits 30``; and the lbq and epsilon ``transform`` and
    ``compare`` of float64 ``alt_harmonic`` and ``zeta2`` at N=200,
    K=50 in the three formats.  Each line covers the argv, exit status
    and stdout of its runs.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import mpmath

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    GeneratorSpec,
    ModeUnsupportedError,
    Sequence,
    SpecError,
    Status,
    build_lattice,
    epsilon_transform,
    generate,
    check_bilinear,
    lbq_transform,
    molecule_solution,
)
from seqaccel.cli import main as cli_main
from seqaccel.oracle import oracle_transform, verify_routes
from seqaccel.seqgen import random_rational_sequence

PAPER = (("archimedes_pi", 13, 4), ("alt_harmonic", 18, 5), ("zeta2", 26, 7))
THRESHOLDS = (("default", None), ("1e-30", 1e-30), ("0", 0), ("2^-40", 2.0**-40), ("1e-3", 1e-3))
SCALES = ("1e-400", "1e-100", "1", "1e100", "1e300")
FLOAT64_SCALES = SCALES[1:]  # 1e-400 is below the float64 range
ENGINES = (lbq_transform, epsilon_transform, build_lattice)
GENERATOR_MODES = (FLOAT64, BigFloat(64), BigFloat(256), BigFloat(1200), RATIONAL)
# the decimal places of each column T_0..T_k of the paper's tables, as scripts/reproduce_tables.py prints them
PAPER_PLACES = {"archimedes_pi": (5, 10, 10, 10, 10), "alt_harmonic": (5, 5, 5, 10, 10, 10),
                "zeta2": (5,) * 8}
CLI_COMMANDS = {"transform lbq": ("transform", "--algorithm", "lbq"),
                "transform epsilon": ("transform", "--algorithm", "epsilon"),
                "transform oracle": ("transform", "--algorithm", "oracle"), "compare": ("compare",)}
# each mode's --mode argument and options
CLI_MODES = {"float64": ("float64",), "bigfloat 128": ("bigfloat", "--precision-bits", "128"),
             "bigfloat 256": ("bigfloat", "--precision-bits", "256"), "rational": ("rational",)}
OUTPUT_FORMATS = ("markdown", "csv", "tsv")
# the limit given to compare in rational mode, whose generators know no irrational limit
DECIMAL_LIMITS = {"archimedes_pi": "3.14159265358979323846", "alt_harmonic": "0.69314718055994530942",
                  "zeta2": "1.64493406684822643647"}
GENERATORS = (("archimedes_pi", 1, {}), ("alt_harmonic", 1, {}), ("zeta2", 1, {}),
              ("geometric", 0, {"z": Fraction(-2, 3)}), ("exp_series", 0, {"z": Fraction(7, 5)}),
              ("zeta", 1, {"s": 3}))


def value_text(value):
    """The type and exact value of a cell's value."""
    if isinstance(value, float):
        return f"float {value.hex()}"
    if isinstance(value, Fraction):
        return f"Fraction {value.numerator}/{value.denominator}"
    sign, man, exp, bc = value._mpf_
    return f"mpf {sign},{int(man)},{exp},{bc}"


def digest(seq, max_order, threshold=None, builds=ENGINES):
    """SHA-256 of the ``builds`` tables of ``seq`` up to ``max_order``, in hex."""
    h = hashlib.sha256()
    for build in builds:
        table = build(seq, max_order) if threshold is None else build(seq, max_order, threshold)
        cells = table.cells(value_text)
        texts = [cell.value if cell is Status.BREAKDOWN else cell for cell in cells.values()]
        h.update(f"{build.__name__} {table.start_label} {table.end_label}\n"
                 f"{list(cells)}\n{texts}\n".encode())
    return h.hexdigest()


def exact_digest(seq, k_max):
    """SHA-256 of the molecule solution and the bilinear report of ``seq`` up to ``k_max``, in hex."""
    mol = molecule_solution(seq, k_max + 3)
    report = check_bilinear(seq, k_max)
    h = hashlib.sha256()
    h.update(f"molecule_solution {list(mol.F)}\n{list(map(value_text, mol.F.values()))}\n"
             f"{list(mol.G)}\n{list(map(value_text, mol.G.values()))}\n".encode())
    h.update(f"check_bilinear {report.checked} {report.zero_f_cells}\n".encode())
    for name, residuals in report.residuals.items():
        h.update(f"{name} {list(residuals)}\n{list(map(value_text, residuals.values()))}\n".encode())
    return h.hexdigest()


def paper_case(family, count, k, mode, oracle=False, threshold=None):
    """The case of one of the paper's tables in ``mode``, from the engines or the oracle."""
    seq, _ = generate(GeneratorSpec(family, count, 1, mode))
    name = f"paper {family} {mode.name}"
    if oracle:
        return f"oracle {name}", seq, k, None, (oracle_transform,)
    if threshold is not None:
        return f"{name} threshold {threshold}", seq, k, threshold, ENGINES
    return name, seq, k, None, ENGINES


def grid_cases(mode, scales):
    """The geometric-plus-correction cases of ``mode`` at each scale and threshold."""
    for scale in scales:
        # at the mode's precision: 53 bits for float64, whatever mpmath's ambient one
        with mpmath.workprec(53 if mode is FLOAT64 else mode.precision_bits):
            s = mpmath.mpf(scale)
            values = [s * (1 + mpmath.mpf(0.5) ** n + mpmath.mpf(-0.3) ** n) for n in range(24)]
        seq = Sequence(1, tuple(values), mode)
        for name, threshold in THRESHOLDS:
            yield f"grid {mode.name} scale {scale} threshold {name}", seq, 7, threshold, ENGINES


def cases():
    """(name, sequence, max_order, threshold, builds) for each case of the corpus."""
    paper = [(case, mode) for mode in (FLOAT64, BigFloat(256), RATIONAL) for case in PAPER
             if not (mode is RATIONAL and case[0] == "archimedes_pi")]
    for case, mode in paper:
        yield paper_case(*case, mode)
    for mode in (FLOAT64, BigFloat(256)):
        for case in PAPER:
            yield paper_case(*case, mode, threshold=0)
    for bits in (64, 128, 256):
        yield from grid_cases(BigFloat(bits), SCALES)
    yield from grid_cases(FLOAT64, FLOAT64_SCALES)
    yield paper_case(*PAPER[1], BigFloat(1200))
    yield from grid_cases(BigFloat(1200), ("1e-400", "1"))
    for start in (1, 7, 16):
        seq, _ = generate(GeneratorSpec("alt_harmonic", 1000, start))
        yield f"f64_linear start {start}", seq, 50, None, ENGINES
    rng = random.Random(20110711)
    for i in range(8):
        head = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(rng.randint(1, 6))]
        tail = [Fraction(rng.randint(-50, 50), rng.randint(1, 20))] * rng.randint(2, 8)
        yield (f"rational constant tail {i}", Sequence.from_iterable(head + tail, i % 4, RATIONAL),
               5, None, ENGINES)
    for case, mode in paper:
        yield paper_case(*case, mode, oracle=True)
    for mode in (RATIONAL, FLOAT64):
        seq, _ = generate(GeneratorSpec("alt_harmonic", 60, 1, mode))
        yield f"oracle alt_harmonic 60 19 {mode.name}", seq, 19, None, (oracle_transform,)


def exact_cases():
    """(name, sequence, k_max) for each molecule and bilinear case of the corpus."""
    rng = random.Random(20110712)
    for i, (length, k_max) in enumerate(((12, 3), (14, 9), (14, 9), (16, 11))):
        yield f"exact random {i}", random_rational_sequence(rng, length, i % 3), k_max
    values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(7)] + [Fraction(5, 2)] * 7
    yield "exact constant tail", Sequence.from_iterable(values, 0, RATIONAL), 9
    seq, _ = generate(GeneratorSpec("alt_harmonic", 40, 1, RATIONAL))
    yield "exact alt_harmonic 40", seq, 39
    yield "exact random 30", random_rational_sequence(rng, 30, 1), 39
    values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(15)] + [Fraction(-4, 3)] * 9
    yield "exact constant tail 24", Sequence.from_iterable(values, 2, RATIONAL), 39


def routes_digest(seq, k_max):
    """SHA-256 of ``verify_routes`` of ``seq`` up to ``k_max``: the cells compared and the mismatches."""
    cells, mismatches = verify_routes(seq, k_max)
    return hashlib.sha256(f"verify_routes {cells} {mismatches}\n".encode()).hexdigest()


def generator_digest(family, count, start, mode, **args):
    """SHA-256 of ``generate``'s values and limit, or of the name of the error it raises, in hex.

    The errors recorded are ``ModeUnsupportedError`` and ``SpecError``.
    """
    try:
        seq, limit = generate(GeneratorSpec(family, count, start, mode, **args))
    except (ModeUnsupportedError, SpecError) as error:
        text = f"{type(error).__name__}\n"
    else:
        text = (f"generate {seq.start_label} {list(map(value_text, seq))}\n"
                f"limit {'None' if limit is None else value_text(limit)}\n")
    return hashlib.sha256(text.encode()).hexdigest()


def generator_digests():
    """{case name: digest} of each generator case of the corpus."""
    out = {}
    for mode in GENERATOR_MODES:
        for family, start, args in GENERATORS:
            out[f"generate {family} {mode.name}"] = generator_digest(family, 12, start, mode, **args)
        for start in (-1022, 1021):
            out[f"generate archimedes_pi {mode.name} start {start}"] = generator_digest(
                "archimedes_pi", 3, start, mode)
    return out


def cli_digest(runs):
    """SHA-256 of the argv, exit status and stdout of each ``cli.main`` run of ``runs``, in hex."""
    h = hashlib.sha256()
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(list(argv))
        h.update(f"{argv}\n{code}\n{out.getvalue()}\n".encode())
    return h.hexdigest()


def cli_cases():
    """(name, runs) of each CLI case of the corpus, a run being one argv."""
    for family, count, k in PAPER:
        for command, command_args in CLI_COMMANDS.items():
            # compare prints an lbq and an eps column for each order
            columns = 2 if command == "compare" else 1
            places = [p for p in PAPER_PLACES[family] for _ in range(columns)]
            digits = (("--col-digits", ",".join(map(str, places))), ("--digits", "30"))
            for mode, mode_args in CLI_MODES.items():
                argv = (*command_args, "--family", family, "--count", str(count), "--k-max", str(k),
                        "--mode", *mode_args)
                if command == "compare" and mode == "rational":
                    argv += ("--limit", DECIMAL_LIMITS[family])
                yield (f"cli {command} {family} {mode}",
                       [(*argv, "--output-format", fmt, *d) for fmt in OUTPUT_FORMATS for d in digits])
    for family in ("alt_harmonic", "zeta2"):
        for command in ("transform lbq", "transform epsilon", "compare"):
            argv = (*CLI_COMMANDS[command], "--family", family, "--count", "200", "--k-max", "50")
            yield (f"cli {command} {family} 200 50 float64",
                   [(*argv, "--output-format", fmt) for fmt in OUTPUT_FORMATS])


def digests():
    """{case name: digest} over the corpus, in corpus order."""
    out = {name: digest(seq, k, threshold, builds) for name, seq, k, threshold, builds in cases()}
    out.update((name, exact_digest(seq, k_max)) for name, seq, k_max in exact_cases())
    seq, _ = generate(GeneratorSpec("alt_harmonic", 60, 1, RATIONAL))
    out["routes alt_harmonic 60 19 rational"] = routes_digest(seq, 19)
    out.update(generator_digests())
    out.update((name, cli_digest(runs)) for name, runs in cli_cases())
    return out


def main():
    for name, hexdigest in digests().items():
        print(f"{name}: {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
