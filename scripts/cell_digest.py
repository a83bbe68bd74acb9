#!/usr/bin/env python3
"""Print one SHA-256 digest of the transform tables for each case of a fixed corpus.

Usage: python scripts/cell_digest.py

A case is a sequence, a mode, a maximum order and a breakdown threshold.
Its digest covers the ``lbq_transform``, ``epsilon_transform`` and
``build_lattice`` tables of that case: every cell's key in table order,
its status, the type of its value and the exact value, written as
``float.hex``, the mpf's ``(sign, mantissa, exponent, bitcount)`` or the
Fraction's ``p/q``.  Two trees that print the same lines compute
bit-identical cells on the corpus; ``tests/cell_digests.txt`` holds the
expected lines.

The corpus:
  * the paper's three tables (pi, ln 2, zeta(2)) in float64, bigfloat256
    and rational mode (pi has no rational mode);
  * a geometric-plus-correction sequence at 64, 128 and 256 bits, for
    every breakdown threshold and scale below, from 1e-400 to 1e300;
  * at 1200 bits, where the default threshold is far below any float:
    the paper's ln 2 table, and the geometric sequence at scales 1e-400
    and 1 for every breakdown threshold;
  * the float64 ``alt_harmonic`` N=1000, K=50 tables of the benchmark
    from the start labels 1, 7 and 16;
  * rational sequences that end in a constant tail.
"""

import hashlib
import random
from fractions import Fraction

import mpmath

from seqaccel import (
    FLOAT64,
    RATIONAL,
    BigFloat,
    GeneratorSpec,
    Sequence,
    build_lattice,
    epsilon_transform,
    generate,
    lbq_transform,
)

PAPER = (("archimedes_pi", 13, 4), ("alt_harmonic", 18, 5), ("zeta2", 26, 7))
THRESHOLDS = (("default", None), ("1e-30", 1e-30), ("0", 0), ("2^-40", 2.0**-40), ("1e-3", 1e-3))
SCALES = ("1e-400", "1e-100", "1", "1e100", "1e300")


def value_text(value):
    """The type and exact value of a cell's value."""
    if isinstance(value, float):
        return f"float {value.hex()}"
    if isinstance(value, Fraction):
        return f"Fraction {value.numerator}/{value.denominator}"
    sign, man, exp, bc = value._mpf_
    return f"mpf {sign},{int(man)},{exp},{bc}"


def digest(seq, max_order, threshold=None):
    """SHA-256 of the three tables of ``seq`` up to ``max_order``, in hex."""
    h = hashlib.sha256()
    for build in (lbq_transform, epsilon_transform, build_lattice):
        table = build(seq, max_order, threshold)
        cells = [e.status.value if e.value is None else value_text(e.value)
                 for e in table.entries.values()]
        h.update(f"{build.__name__} {table.start_label} {table.end_label}\n"
                 f"{list(table.entries)}\n{cells}\n".encode())
    return h.hexdigest()


def paper_case(family, count, k, mode):
    """The case of one of the paper's tables in ``mode``."""
    seq, _ = generate(GeneratorSpec(family, count, 1, mode))
    return f"paper {family} {mode.name}", seq, k, None


def grid_cases(mode, scales):
    """The geometric-plus-correction cases of ``mode`` at each scale and threshold."""
    for scale in scales:
        with mode.context():
            s = mpmath.mpf(scale)
            values = [s * (1 + mpmath.mpf(0.5) ** n + mpmath.mpf(-0.3) ** n) for n in range(24)]
        seq = Sequence(1, tuple(values), mode)
        for name, threshold in THRESHOLDS:
            yield f"grid {mode.name} scale {scale} threshold {name}", seq, 7, threshold


def cases():
    """(name, sequence, max_order, threshold) for each case of the corpus."""
    for mode in (FLOAT64, BigFloat(256), RATIONAL):
        for family, count, k in PAPER:
            if mode is RATIONAL and family == "archimedes_pi":
                continue
            yield paper_case(family, count, k, mode)
    for bits in (64, 128, 256):
        yield from grid_cases(BigFloat(bits), SCALES)
    yield paper_case(*PAPER[1], BigFloat(1200))
    yield from grid_cases(BigFloat(1200), ("1e-400", "1"))
    for start in (1, 7, 16):
        seq, _ = generate(GeneratorSpec("alt_harmonic", 1000, start))
        yield f"f64_linear start {start}", seq, 50, None
    rng = random.Random(20110711)
    for i in range(8):
        head = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(rng.randint(1, 6))]
        tail = [Fraction(rng.randint(-50, 50), rng.randint(1, 20))] * rng.randint(2, 8)
        yield f"rational constant tail {i}", Sequence.from_iterable(head + tail, i % 4, RATIONAL), 5, None


def digests():
    """{case name: digest} over the corpus, in corpus order."""
    return {name: digest(seq, k, threshold) for name, seq, k, threshold in cases()}


def main():
    for name, hexdigest in digests().items():
        print(f"{name}: {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
