"""Command-line front end.

Subcommands: generate, transform, compare, classify, verify.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import analysis, oracle, seqgen
from .epsilon import epsilon_transform
from .errors import SeqAccelError
from .formatting import format_exact, format_fixed
from .lbq import lbq_transform
from .modes import mode_from_name
from .tables import Status


def _add_mode_args(p):
    p.add_argument("--mode", default="float64", choices=["float64", "bigfloat", "rational"])
    p.add_argument("--precision-bits", type=int, default=128)
    p.add_argument("--breakdown-threshold", type=str, default=None)


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


def build_parser():
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
    _add_mode_args(t)
    _add_input_args(t)
    _add_output_args(t)

    c = sub.add_parser("compare", help="side-by-side lbq/epsilon error columns")
    c.add_argument("--k-max", type=int, default=3)
    _add_mode_args(c)
    _add_input_args(c)
    _add_output_args(c)

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
    return mode_from_name(args.mode, getattr(args, "precision_bits", 128))


def _get_threshold(args, mode):
    raw = getattr(args, "breakdown_threshold", None)
    if raw is None:
        return None
    return mode.convert(Fraction(raw))


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
        start = args.start
        if start is None:
            start = 0 if args.family in ("geometric", "exp_series") else 1
        z = Fraction(args.z) if args.z is not None else None
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
    if args.col_digits:
        parts = [int(p) for p in args.col_digits.split(",")]
        if len(parts) != ncols:
            raise SeqAccelError(
                f"--col-digits needs {ncols} entries, got {len(parts)}")
        return parts
    return [args.digits] * ncols


def _entry_text(entry, digits):
    if entry.status is Status.BREAKDOWN:
        return "BRK"
    if entry.status is Status.UNAVAILABLE:
        return ""
    return format_fixed(entry.value, digits)


def transform_table(seq, algorithm, k_max, threshold=None):
    if algorithm == "lbq":
        return lbq_transform(seq, k_max, threshold)
    if algorithm == "epsilon":
        return epsilon_transform(seq, k_max, threshold)
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
    digits = _column_digits(args, args.k_max + 1)
    header = ["n"] + [f"T{k}" for k in range(args.k_max + 1)]
    rows = []
    for n in table.rows():
        row = [str(n)]
        for k in range(args.k_max + 1):
            row.append(_entry_text(table.get(k, n), digits[k]))
        rows.append(row)
    _emit(_render_table(header, rows, args.output_format), args.out)
    return 0


def cmd_compare(args):
    mode = _get_mode(args)
    seq, limit = _load_sequence(args, mode)
    if limit is None:
        raise SeqAccelError("compare needs a known or overridden limit")
    threshold = _get_threshold(args, mode)
    lbq_tab = lbq_transform(seq, args.k_max, threshold)
    eps_tab = epsilon_transform(seq, args.k_max, threshold)
    digits = _column_digits(args, 2 * args.k_max + 2)
    header = ["n"]
    for k in range(args.k_max + 1):
        header += [f"lbq_T{k}_err", f"eps_T{k}_err"]
    rows = []
    for n in lbq_tab.rows():
        row = [str(n)]
        for k in range(args.k_max + 1):
            for i, tab in enumerate((lbq_tab, eps_tab)):
                e = tab.get(k, n)
                if e.ok:
                    row.append(format_fixed(abs(e.value - limit), digits[2 * k + i]))
                else:
                    row.append(_entry_text(e, 0))
        rows.append(row)
    _emit(_render_table(header, rows, args.output_format), args.out)
    return 0


def cmd_classify(args):
    mode = _get_mode(args)
    seq, limit = _load_sequence(args, mode)
    report = analysis.estimate_rho(seq, limit, args.delta)
    print(f"classification: {report.describe()}")
    print(f"limit used: {'(proxy: last element)' if report.limit_used is None else report.limit_used}")
    shown = [r for r in report.rho_estimates if r is not None][-8:]
    print("trailing rho estimates: " + ", ".join(f"{float(r):+.6f}" for r in shown))
    return 0


def cmd_verify(args):
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        seq = seqgen.random_rational_sequence(rng, args.length, rng.randint(0, 3))
        report = oracle.check_bilinear(seq, args.k_max)
        ok = report.all_zero and report.checked > 0
        print(f"trial {trial}: bilinear residuals "
              f"({report.checked} cells) {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1

        compared, mismatches = oracle.verify_routes(seq, 3)
        ok = not mismatches and compared > 0
        print(f"trial {trial}: route equivalence "
              f"({compared} cells) {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    print("PASS" if failures == 0 else f"FAIL ({failures} checks)")
    return 0 if failures == 0 else 1


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "transform": cmd_transform,
        "compare": cmd_compare,
        "classify": cmd_classify,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except SeqAccelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
