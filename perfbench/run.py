"""seqaccel benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload f64_linear --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is in BENCHMARK.json): f64_linear,
f64_valid, bigfloat_paper, rational_verify.

The workload runs in its own fresh interpreter (worker.py), single
process and single thread, as a closed loop with one client: each op
starts only after the previous op and its output check have finished.
Every op's output is checked; an op that raises or fails its check is a
failed op.

--trace 0 reports the end-to-end metrics: op_s.p50 (the median op),
cells_per_s (the median over ops of cells per second), peak_rss_mb and
setup_s (the median of fresh starts).  Times are in reference seconds:
each interval is measured against short probes of fixed interpreter work
timed around and during it (speed.py), because this kind of shared host
changes speed by up to ~40% from one quarter second to the next.

Printed with them, and written to perfbench/out/, but not reported as
metrics: op_s.tail, the highest percentile with at least ten samples
beyond it, with that percentile and the sample count (a 20-second run of
a 1.7-second op has too few samples for a steady tail), and the same
figures in wall seconds.

--trace 1 is a separate run that reports the per-layer metrics: busy
seconds per op of each layer call, per-op counts, the start-up split,
per-module self-time shares from one cProfile pass, and the tracing
overhead; its spans and their per-layer summary are written to
perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it print every metric
by name and unit, fail_ratio and the machine facts; all of it is also
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "seqaccel"
OUT = HERE / "out"
WORKLOADS = ("f64_linear", "f64_valid", "bigfloat_paper", "rational_verify")
# a single fresh start is noisy (~23% IQR), so setup_s is a median over this many
FRESH_STARTS = 21
TIME_LIMIT_S = 170  # the whole run, set-up included, ends within this
BARE_START = "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def tail(samples):
    """(value, percentile) of the highest whole percentile with >= 10 samples above it.

    Nearest-rank percentile.  With ten samples or fewer none qualifies, and
    the maximum is reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = 100 * (n - 10) // n
    return ordered[max(1, math.ceil(pct * n / 100)) - 1], pct


def calibrate():
    """Seconds for a fixed pure-Python loop, median of three.

    It tracks this machine's speed, which drifts between runs; metrics
    are not normalised by it.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def commit():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout: source_sha256 identifies the code
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fresh_start(argv, deadline, clock):
    """(reference, wall) seconds from spawning ``argv`` to its first stdout line, and the line.

    The probes that bracket the start run while no child is alive.
    """
    clock.probe()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        end = time.perf_counter()
        try:
            proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"{argv[1:]} exited with status {proc.returncode}")
    clock.probe()
    return clock.measure(start, end), line


def worker_argv(args, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def run(args):
    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S
    calibration = [calibrate()]
    clock = SpeedClock()

    setups, wall_setups, imports = [], [], []
    for _ in range(FRESH_STARTS):
        (ref_s, wall_s), line = fresh_start(worker_argv(args, "--probe"), deadline, clock)
        setups.append(ref_s)
        wall_setups.append(wall_s)
        imports.append(json.loads(line)["import_s"])
    bare = []
    if args.trace:
        bare = [fresh_start([sys.executable, "-c", BARE_START], deadline, clock)[0][0]
                for _ in range(FRESH_STARTS)]

    proc = subprocess.run(worker_argv(args), stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.perf_counter()), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    calibration.append(calibrate())

    op_s = result["op_s"]
    tail_s, tail_pct = tail(op_s)
    if args.trace:
        metrics = dict(result["layers"])
        metrics["startup.interpreter_s"] = statistics.median(bare)
        metrics["startup.import_s"] = statistics.median(imports)
    else:
        metrics = {
            "op_s.p50": statistics.median(op_s),
            "cells_per_s": statistics.median(c / t for c, t in zip(result["cells"], op_s)),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath_backend": result["mpmath_backend"],
        "commit": commit(),
        "source_sha256": source_sha256(),
        "calibration_s": calibration,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "errors": result["errors"],
        "op_s": {"samples": len(op_s), "p50": statistics.median(op_s), "tail": tail_s,
                 "tail_percentile": tail_pct, "values": op_s},
        "setup_s_samples": setups,
        "wall": {"op_s.p50": statistics.median(result["wall_op_s"]),
                 "op_s.tail": tail(result["wall_op_s"])[0],
                 "op_s.values": result["wall_op_s"],
                 "setup_s": statistics.median(wall_setups),
                 "setup_s_samples": wall_setups},
        "metrics": metrics,
        "wall_s": time.perf_counter() - started,
    }
    for key in ("traced_op_s", "spans_file"):
        if key in result:
            report[key] = result[key]
    return report


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no seqaccel sources at {PACKAGE}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        report = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1), encoding="utf-8")

    facts, ops = report["machine"], report["op_s"]
    print(f"machine: nproc {facts['nproc']}, python {facts['python']}, "
          f"mpmath backend {facts['mpmath_backend']}, commit {facts['commit']}, "
          f"source {facts['source_sha256'][:12]}, calibration "
          + " / ".join(f"{c:.4f} s" for c in facts["calibration_s"]))
    print(f"{args.workload} seed {args.seed}: {report['attempted']} ops, "
          f"{report['failed']} failed, fail_ratio {report['fail_ratio']:.4g}; "
          f"op_s.p50 {ops['p50']:.6g} s, op_s.tail {ops['tail']:.6g} s "
          f"(p{ops['tail_percentile']} of {ops['samples']} samples)")
    wall = report["wall"]
    print(f"  in wall seconds: op_s.p50 {wall['op_s.p50']:.6g} s, "
          f"op_s.tail {wall['op_s.tail']:.6g} s, setup_s {wall['setup_s']:.6g} s")
    for error in report["errors"]:
        print(error, file=sys.stderr)
    metrics = {name: {"value": report["metrics"][name], "unit": unit}
               for name, unit in declared_metrics(args.trace).items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
