#!/usr/bin/env python3
"""Print the transform tables for the three worked example sequences.

Usage: python scripts/reproduce_tables.py [--mode {float64,bigfloat,rational}]

The exit status is 1 if any table failed to print.
"""

import argparse

from seqaccel.cli import main as cli_main

# (title, argv, irrational): a table of irrational values is skipped in rational mode
RUNS = [
    ("pi from doubling sines", [
        "transform", "--family", "archimedes_pi", "--count", "13",
        "--k-max", "4", "--col-digits", "5,10,10,10,10",
    ], True),
    ("ln 2 from the alternating harmonic series", [
        "transform", "--family", "alt_harmonic", "--count", "18",
        "--k-max", "5", "--col-digits", "5,5,5,10,10,10",
    ], False),
    ("zeta(2) partial sums (logarithmic, no acceleration)", [
        "transform", "--family", "zeta2", "--count", "26",
        "--k-max", "7", "--digits", "5",
    ], False),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", default="float64",
                    choices=["float64", "bigfloat", "rational"])
    args = ap.parse_args()
    failed = False
    for title, argv, irrational in RUNS:
        if irrational and args.mode == "rational":
            print(f"\n== {title}: skipped (irrational values) ==")
            continue
        print(f"\n== {title} ({args.mode}) ==")
        failed |= cli_main(argv + ["--mode", args.mode]) != 0
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
