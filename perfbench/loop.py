"""The closed loop of checked ops, untraced or traced, that a worker runs."""

from __future__ import annotations

import cProfile
import statistics
import time
import traceback
from collections import defaultdict

from speed import PROBE_INTERVAL_S
from tracing import Tracer, busy_per_op, module_shares

PROFILE_SECONDS = 2.0  # the profile pass runs ops until this much time has passed
# layer spans the benchmark records; "<name>_s" is each one's busy seconds per op
LAYER_SPANS = (
    "seqgen.generate", "seqgen.ingest", "lbq.transform", "epsilon.transform",
    "analysis.error_table", "formatting.format", "cli.main", "oracle.t_determinant",
    "oracle.molecule_solution", "oracle.check_bilinear",
)
# per-op counts reported as a mean over the traced ops
COUNTS = (
    "lbq.cells", "lbq.valid", "lbq.breakdown", "epsilon.cells", "epsilon.valid",
    "epsilon.breakdown", "oracle.t_determinant_calls", "oracle.route_cells",
    "oracle.bilinear_cells", "oracle.zero_f_cells", "seqgen.values", "formatting.cells",
)


class Loop:
    """Closed loop with one client: each op starts after the previous op's check.

    An op fails if it raises or its output check fails.
    """

    def __init__(self, workload, clock):
        self.workload, self.clock = workload, clock
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _fail(self):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(traceback.format_exc(limit=4))

    def run(self, tr, i, profiler=None):
        """Run op ``i``; return its (reference, wall) seconds and its output, or None if it failed.

        The op is timed against the clock's probes (speed.py); a profiled
        op is probed only before and after.
        """
        self.attempted += 1
        tr.op_id = i
        op = self.workload.op
        start = end = None
        try:
            with self.clock.probing(None if profiler else PROBE_INTERVAL_S):
                start = time.perf_counter()
                try:
                    with tr.span("op"):
                        out = op(tr, i) if profiler is None else profiler.runcall(op, tr, i)
                finally:
                    end = time.perf_counter()
        except Exception:  # a raising op is a failed op; the loop goes on
            self._fail()
            return self.clock.measure(start, end), None
        times = self.clock.measure(start, end)
        try:
            self.workload.check(out)
        except Exception:  # CheckFailed, or an output too malformed to check
            self._fail()
            return times, None
        return times, out


def untraced(loop, seconds, null):
    ref, wall, cells, i = [], [], [], 1
    deadline = time.perf_counter() + seconds
    while True:
        (ref_s, wall_s), out = loop.run(null, i)
        ref.append(ref_s)
        wall.append(wall_s)
        cells.append(0 if out is None else loop.workload.cells(out))
        out = None  # free this op's output before the next op allocates its own
        i += 1
        if time.perf_counter() >= deadline:
            return {"op_s": ref, "wall_op_s": wall, "cells": cells}


def traced(loop, seconds, null, package):
    """Alternate untraced and traced ops on the same inputs, then one profile pass.

    Returns the results and the tracer holding the spans.  Op and layer
    times are in reference seconds; the spans the tracer holds are wall
    clock.
    """
    wl, tracer = loop.workload, Tracer()
    plain, plain_wall, spanned, traced_ops = [], [], [], []
    counts = defaultdict(float)
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        (ref_s, wall_s), out = loop.run(null, i)
        plain.append(ref_s)
        plain_wall.append(wall_s)
        out = None
        (ref_s, _), out = loop.run(tracer, i)
        spanned.append(ref_s)
        traced_ops.append(i)
        if out is not None:
            for name, value in wl.counts(out).items():
                counts[name] += value
        out = None
        i += 1
        if time.perf_counter() >= deadline:
            break

    profiler = cProfile.Profile()
    start = time.perf_counter()
    while time.perf_counter() - start < PROFILE_SECONDS:
        loop.run(null, i, profiler)
        i += 1
    profiler.create_stats()

    busy = busy_per_op(tracer.spans, lambda start, end: loop.clock.measure(start, end)[0])
    n = len(traced_ops)
    layers = {
        f"{name}_s": statistics.median(busy[name].get(op, 0.0) for op in traced_ops)
        for name in LAYER_SPANS
    }
    layers.update({name: counts[name] / n for name in COUNTS})
    for prefix in ("lbq", "epsilon"):
        cells = counts[f"{prefix}.cells"]
        layers[f"{prefix}.valid_ratio"] = counts[f"{prefix}.valid"] / cells if cells else 0.0
    layers["trace.overhead_ratio"] = statistics.median(spanned) / statistics.median(plain)
    for module, share in module_shares(profiler, package).items():
        layers[f"self_share.{module}"] = share
    return {"op_s": plain, "wall_op_s": plain_wall, "traced_op_s": spanned,
            "layers": layers}, tracer
