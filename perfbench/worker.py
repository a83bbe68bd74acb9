"""One workload in a fresh interpreter: set up, then a closed loop of checked ops.

run.py starts this script; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

With --probe it exits as soon as the first op is ready, after printing
the wall time ``import seqaccel`` took.  Otherwise it runs one untimed
warm-up op, then ops until --seconds have passed, and prints one JSON
object: op times in reference and wall seconds (speed.py), work done,
failures and peak memory; with --trace 1 also the per-layer metrics, and
the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

# Only what the --probe path needs is imported here: setup_s times that
# path, so it should measure the interpreter and seqaccel, not the benchmark.
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_seqaccel():
    """Import seqaccel from this checkout's sources; return the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import seqaccel

    elapsed = time.perf_counter() - start
    if Path(seqaccel.__file__).resolve().parent != SRC / "seqaccel":
        raise ImportError(f"seqaccel came from {seqaccel.__file__}, not from {SRC}")
    return elapsed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    import_s = import_seqaccel()
    import mpmath.libmp
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    wl.setup()
    if args.probe:
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    from loop import Loop, traced, untraced
    from speed import SpeedClock
    from tracing import NullTracer, summary

    wl.prepare_reference()
    loop, null = Loop(wl, SpeedClock()), NullTracer()
    loop.run(null, 0)  # warm-up: counted and checked, not timed
    if args.trace:
        result, tracer = traced(loop, args.seconds, null, SRC / "seqaccel")
        spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "spans": tracer.as_records(),
            "summary": summary(tracer.spans),
        }), encoding="utf-8")
        result["spans_file"] = str(spans_file.relative_to(HERE.parent))
    else:
        result = untraced(loop, args.seconds, null)
    result.update({
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "import_s": import_s,
        "mpmath_backend": mpmath.libmp.BACKEND,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
