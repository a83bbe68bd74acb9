"""Command-line front end.

Subcommands: generate, transform, compare, classify, verify.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from functools import cache

from . import analysis, oracle, seqgen
from .epsilon import epsilon_transform
from .errors import SeqAccelError, SpecError
from .formatting import format_exact, format_fixed
from .lbq import lbq_transform
from .modes import RATIONAL, mode_from_name


def _add_mode_args(p):
    p.add_argument("--mode", default="float64", choices=["float64", "bigfloat", "rational"])
    p.add_argument("--precision-bits", type=int, default=128)


def _add_input_args(p):
    p.add_argument("--family", choices=list(seqgen.FAMILIES))
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--start", type=int, default=None, help="start label")
    p.add_argument("--z", type=str, default=None, help="geometric/exp_series argument")
    p.add_argument("--s", type=int, default=None, help="zeta exponent")
    p.add_argument("--input", type=str, default=None, help="read sequence from file")
    p.add_argument("--format", dest="informat", default="lines", choices=["lines", "csv"])
    p.add_argument("--column", type=str, default=None, help="CSV value column (name or index)")
    p.add_argument("--limit", type=str, default=None, help="override the known limit")


def _add_output_args(p):
    p.add_argument("--output-format", default="markdown", choices=["csv", "tsv", "markdown"])
    p.add_argument("--digits", type=int, default=10)
    p.add_argument("--col-digits", type=str, default=None,
                   help="comma-separated per-column digit counts")
    p.add_argument("--out", type=str, default=None)


def _add_table_args(p):
    """Arguments of the commands that print a table: transform and compare."""
    _add_mode_args(p)
    p.add_argument("--breakdown-threshold", type=str, default=None)
    _add_input_args(p)
    _add_output_args(p)


@cache
def build_parser():
    """The ``seqaccel`` argument parser, built once per process: parsing
    does not change it, and each ``parse_args`` call makes a fresh namespace."""
    ap = argparse.ArgumentParser(prog="seqaccel",
                                 description="Sequence transformation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit an example sequence")
    _add_mode_args(g)
    _add_input_args(g)
    g.add_argument("--output-format", default="lines", choices=["lines", "csv"])
    g.add_argument("--out", type=str, default=None)

    t = sub.add_parser("transform", help="accelerate a sequence")
    t.add_argument("--algorithm", default="lbq", choices=["lbq", "epsilon", "oracle"])
    t.add_argument("--k-max", type=int, default=4)
    _add_table_args(t)

    c = sub.add_parser("compare", help="side-by-side lbq/epsilon error columns")
    c.add_argument("--k-max", type=int, default=3)
    _add_table_args(c)

    cl = sub.add_parser("classify", help="convergence-rate report")
    _add_mode_args(cl)
    _add_input_args(cl)
    cl.add_argument("--delta", type=float, default=0.05)

    v = sub.add_parser("verify", help="identity and route-equivalence checks")
    v.add_argument("--k-max", type=int, default=6)
    v.add_argument("--trials", type=int, default=10)
    v.add_argument("--seed", type=int, default=20110711)
    v.add_argument("--length", type=int, default=14)
    return ap


def _get_mode(args):
    return mode_from_name(args.mode, args.precision_bits)


def _get_threshold(args, mode):
    if args.breakdown_threshold is None:
        return None
    return mode.parse(args.breakdown_threshold)


def _load_sequence(args, mode):
    """Sequence plus known limit from either a generator family or a file."""
    if args.input is not None:
        column = args.column
        if column is not None and column.isdigit():
            column = int(column)
        seq = seqgen.ingest(args.input, args.informat, mode,
                            column=column, start_label=args.start)
        limit = None
    elif args.family is not None:
        start = seqgen.first_label(args.family) if args.start is None else args.start
        z = RATIONAL.parse(args.z) if args.z is not None else None
        spec = seqgen.GeneratorSpec(args.family, args.count, start, mode, z=z, s=args.s)
        seq, limit = seqgen.generate(spec)
    else:
        raise SeqAccelError("provide either --family or --input")
    if args.limit is not None:
        limit = mode.parse(args.limit)
    return seq, limit


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_table(header, rows, fmt):
    if fmt == "csv":
        return [",".join(header)] + [",".join(r) for r in rows]
    if fmt == "tsv":
        return ["\t".join(header)] + ["\t".join(r) for r in rows]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return lines


def _column_digits(args, ncols):
    """Decimal places of each of the ``ncols`` value columns: ``--col-digits``
    if given, else ``--digits`` for every column; each is an integer, and
    none may be negative."""
    try:
        digits = [int(p) for p in args.col_digits.split(",")] if args.col_digits else [args.digits] * ncols
    except ValueError as exc:  # int() quotes the entry it rejects
        raise SpecError(f"--col-digits entries must be integers ({exc})") from None
    if len(digits) != ncols:
        raise SeqAccelError(f"--col-digits needs {ncols} entries, got {len(digits)}")
    if min(digits, default=0) < 0:
        raise SpecError(f"--digits and --col-digits must be >= 0, got {min(digits)}")
    return digits


def _emit_grid(args, header, labels, columns):
    """Print one row per label n: n, then one cell of each ``(prefix, length)``
    column of ``columns``, in the order of ``header[1:]``.  A live value is
    printed by ``format_fixed`` to its column's places, a ``None`` in the
    prefix and each cell from the prefix's end to ``length`` as ``BRK``,
    and each cell past ``length`` blank."""
    digits = _column_digits(args, len(header) - 1)
    texts = [["BRK" if v is None else format_fixed(v, places) for v in prefix]
             + ["BRK"] * (length - len(prefix)) + [""] * (len(labels) - length)
             for (prefix, length), places in zip(columns, digits)]
    rows = [[str(n), *cells] for n, *cells in zip(labels, *texts)]
    _emit(_render_table(header, rows, args.output_format), args.out)


def transform_table(seq, algorithm, k_max, threshold=None):
    if algorithm == "lbq":
        return lbq_transform(seq, k_max, threshold)
    if algorithm == "epsilon":
        return epsilon_transform(seq, k_max, threshold)
    if threshold is not None:
        raise SpecError("--breakdown-threshold does not apply to --algorithm oracle, "
                        "which is exact and breaks down only on a zero denominator")
    return oracle.oracle_transform(seq, k_max)


def cmd_generate(args):
    mode = _get_mode(args)
    seq, _ = _load_sequence(args, mode)
    if args.output_format == "lines":
        lines = [format_exact(v) for v in seq]
    else:
        lines = ["n,S"] + [f"{n},{format_exact(seq.at(n))}" for n in seq.labels()]
    _emit(lines, args.out)
    return 0


def cmd_transform(args):
    mode = _get_mode(args)
    seq, _ = _load_sequence(args, mode)
    table = transform_table(seq, args.algorithm, args.k_max, _get_threshold(args, mode))
    header = ["n"] + [f"T{k}" for k in range(args.k_max + 1)]
    _emit_grid(args, header, seq.labels(), [table.columns[k] for k in range(args.k_max + 1)])
    return 0


def cmd_compare(args):
    mode = _get_mode(args)
    seq, limit = _load_sequence(args, mode)
    if limit is None:
        raise SeqAccelError("compare needs a known or overridden limit")
    threshold = _get_threshold(args, mode)
    tables = (lbq_transform(seq, args.k_max, threshold),
              epsilon_transform(seq, args.k_max, threshold))
    errors = [analysis.error_columns(table, limit) for table in tables]
    header = ["n"] + [f"{name}_T{k}_err" for k in range(args.k_max + 1)
                      for name in ("lbq", "eps")]
    _emit_grid(args, header, seq.labels(),
               [errs[k] for k in range(args.k_max + 1) for errs in errors])
    return 0


def cmd_classify(args):
    mode = _get_mode(args)
    seq, limit = _load_sequence(args, mode)
    report = analysis.estimate_rho(seq, limit, args.delta)
    print(f"classification: {report.describe()}")
    print(f"limit used: {'(proxy: last element)' if report.limit_used is None else report.limit_used}")
    shown = [r for r in report.rho_estimates if r is not None][-8:]
    print("trailing rho estimates: " + ", ".join(map(_rho_text, shown)))
    return 0


def _rho_text(r):
    """r to six signed places; one beyond the float range is +inf or -inf, as float() makes an mpf."""
    try:
        return f"{float(r):+.6f}"
    except OverflowError:  # a Fraction beyond the float range
        return "+inf" if r > 0 else "-inf"


def cmd_verify(args):
    # below these a run checks nothing: check_bilinear has no cell at k_max 0,
    # and verify_routes(seq, 3) none on fewer than 4 values
    for option, value, least in (("--trials", args.trials, 1), ("--k-max", args.k_max, 1),
                                 ("--length", args.length, 4)):
        if value < least:
            raise SpecError(f"{option} must be at least {least}, got {value}")
    rng = random.Random(args.seed)
    failures = cells = 0
    for trial in range(args.trials):
        seq = seqgen.random_rational_sequence(rng, args.length, rng.randint(0, 3))
        report = oracle.check_bilinear(seq, args.k_max)
        compared, mismatches = oracle.verify_routes(seq, 3)
        # a check with no cell (each cell it reads broke down) compared nothing:
        # it neither passes nor fails
        for name, checked, ok in (("bilinear residuals", report.checked, report.all_zero),
                                  ("route equivalence", compared, not mismatches)):
            print(f"trial {trial}: {name} ({checked} cells) "
                  f"{'not compared' if not checked else 'PASS' if ok else 'FAIL'}")
            failures += 0 if ok else 1
            cells += checked
    if failures:
        print(f"FAIL ({failures} checks)")
    elif not cells:
        print("FAIL (no check compared a cell)")
    else:
        print("PASS")
    return 0 if failures == 0 and cells else 1


def _join_negative_numbers(argv):
    """argv with each negative number after ``--z``, ``--limit`` or ``--breakdown-threshold`` joined to it.

    argparse reads a token like ``-1/2`` or ``-1e-1`` as an option, since
    only plain negatives like ``-0.5`` look like values to it;
    ``--z -1/2`` becomes ``--z=-1/2``.  An option may be abbreviated as
    argparse allows, to ``--`` and at least one more character of its
    name (``--lim -1/3`` becomes ``--lim=-1/3``); no two of the three
    share such a prefix, and argparse itself rejects one that another
    option of the command shares.
    """
    out = []
    for token in argv:
        option = out[-1] if out else ""
        if re.match(r"-[\d.]", token) and len(option) > 2 and any(
                name.startswith(option) for name in ("--z", "--limit", "--breakdown-threshold")):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    args = build_parser().parse_args(_join_negative_numbers(sys.argv[1:] if argv is None else argv))
    handlers = {
        "generate": cmd_generate,
        "transform": cmd_transform,
        "compare": cmd_compare,
        "classify": cmd_classify,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (SeqAccelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
