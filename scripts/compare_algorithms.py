#!/usr/bin/env python3
"""Side-by-side absolute errors of the lattice transformation and the
epsilon algorithm on the three example sequences.

The first two examples show both methods accelerating; the zeta(2)
example shows neither helping (logarithmic convergence).
"""

from seqaccel.cli import main as cli_main

EXAMPLES = [
    ("archimedes_pi", "18", "3"),
    ("alt_harmonic", "18", "3"),
    ("zeta2", "18", "3"),
]


def main():
    """Print every comparison; the exit status is 1 if any CLI run failed."""
    failed = False
    for family, count, k_max in EXAMPLES:
        print(f"\n== {family}: |T_k - S| vs |eps_2k - S| ==")
        failed |= cli_main([
            "compare", "--family", family, "--count", count,
            "--k-max", k_max, "--digits", "10",
        ]) != 0
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
